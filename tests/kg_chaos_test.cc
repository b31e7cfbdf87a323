// Chaos harness for the resilient KG extraction path (docs/robustness.md).
//
// The contract under test: a *transient-only* fault plan (timeouts, rate
// limits, outages, truncated responses, latency — but nothing permanent)
// must be completely masked by the retry layer. Masked means the full
// covid explain+subgroups report is byte-identical to the fault-free run,
// at every thread count. Permanent faults, by contrast, must surface as
// degraded coverage: visible in ExtractionStats and in the report, and a
// hard error once coverage drops below ExtractionOptions::min_coverage.
//
// CI sweeps additional fault seeds via MESA_CHAOS_SEEDS (comma-separated);
// the built-in defaults keep the local run self-contained.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "datagen/registry.h"
#include "query/sql_parser.h"

namespace mesa {
namespace {

constexpr char kQuery[] =
    "SELECT Country, avg(Deaths_per_100_cases) FROM covid GROUP BY Country";

struct RunOutcome {
  std::string report_text;
  ExtractionStats stats;
};

// Resizes the global pool for one run and restores it afterwards.
class PoolSizeGuard {
 public:
  explicit PoolSizeGuard(size_t threads) : saved_(NumThreads()) {
    SetNumThreads(threads);
  }
  ~PoolSizeGuard() { SetNumThreads(saved_); }
  PoolSizeGuard(const PoolSizeGuard&) = delete;
  PoolSizeGuard& operator=(const PoolSizeGuard&) = delete;

 private:
  size_t saved_;
};

// Runs the full covid pipeline (explain + subgroups, exactly the golden
// test's shape) under `fault_plan` on a pool of `num_threads` lanes.
Result<RunOutcome> RunCovid(const std::string& fault_plan,
                            size_t num_threads,
                            double min_coverage = 0.0) {
  PoolSizeGuard pool(num_threads);
  auto ds = MakeDataset(DatasetKind::kCovid, GenOptions{});
  MESA_RETURN_IF_ERROR(ds.status());
  auto query = ParseQuery(kQuery);
  MESA_RETURN_IF_ERROR(query.status());

  MesaOptions options;
  options.fault_plan = fault_plan;
  options.extraction.min_coverage = min_coverage;

  Mesa mesa(ds->table, ds->kg.get(), {"Country", "WHO_Region"}, options);
  auto report = mesa.Explain(*query);
  MESA_RETURN_IF_ERROR(report.status());

  RunOutcome out;
  out.report_text = FormatReport(*report);
  SubgroupOptions sg;
  sg.threshold = 0.05 * report->base_cmi;
  sg.refinement_attributes = {"WHO_Region"};
  auto groups =
      mesa.FindSubgroups(*query, report->explanation.attribute_names, sg);
  MESA_RETURN_IF_ERROR(groups.status());
  out.report_text += FormatSubgroups(*groups);
  out.stats = report->extraction;
  return out;
}

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  const char* env = std::getenv("MESA_CHAOS_SEEDS");
  std::string text = env == nullptr ? "101,202,303" : env;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string tok = text.substr(pos, comma - pos);
    if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    pos = comma + 1;
  }
  return seeds;
}

std::string TransientPlan(uint64_t seed) {
  return "seed=" + std::to_string(seed) +
         ";timeout=0.15;rate_limit=0.1;unavailable=0.05;truncate=0.05;"
         "latency=1:5";
}

TEST(KgChaos, TransientFaultsAreMaskedBitIdenticallyAtAnyThreadCount) {
  auto baseline = RunCovid("", 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_FALSE(baseline->report_text.empty());
  EXPECT_EQ(baseline->stats.values_failed, 0u);
  EXPECT_EQ(baseline->stats.lookups_retried, 0u);

  for (uint64_t seed : ChaosSeeds()) {
    const std::string plan = TransientPlan(seed);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      auto chaotic = RunCovid(plan, threads);
      ASSERT_TRUE(chaotic.ok()) << chaotic.status().ToString();
      // Byte-identical report: the outage left no trace in the output.
      EXPECT_EQ(chaotic->report_text, baseline->report_text);
      // ...but it did happen: the retry layer worked for this result.
      EXPECT_EQ(chaotic->stats.values_failed, 0u);
      EXPECT_GT(chaotic->stats.lookups_retried, 0u);
      EXPECT_DOUBLE_EQ(chaotic->stats.Coverage(), 1.0);
    }
  }
}

TEST(KgChaos, PermanentFaultsDegradeCoverageGracefully) {
  auto degraded = RunCovid("seed=7;fail_keys=0.5", 1);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_GT(degraded->stats.values_failed, 0u);
  EXPECT_LT(degraded->stats.Coverage(), 1.0);
  // Partial coverage is printed, not hidden.
  EXPECT_NE(degraded->report_text.find("failed lookups"), std::string::npos);
}

TEST(KgChaos, CoverageFloorTurnsDegradationIntoAnError) {
  auto floored = RunCovid("seed=7;fail_keys=0.5", 1, /*min_coverage=*/0.95);
  ASSERT_FALSE(floored.ok());
  EXPECT_EQ(floored.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(floored.status().message().find("coverage"), std::string::npos);

  // A floor that the run actually clears passes: fully masked transient
  // faults leave coverage at 100%.
  auto lenient = RunCovid(TransientPlan(7), 1, /*min_coverage=*/0.95);
  EXPECT_TRUE(lenient.ok()) << lenient.status().ToString();
}

TEST(KgChaos, MalformedFaultPlanIsAnErrorNotANoOp) {
  auto run = RunCovid("seed=7;typo_rate=0.5", 1);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mesa
