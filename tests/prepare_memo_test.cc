// Tests for candidate preparation's memo and shared IPW design
// (docs/performance.md §2.6): the selection-bias verdict and propensity
// coefficients memoized by content must give bit-identical prepared
// attributes and reports with the memo on or off, at 1/2/8 threads; a
// second Mesa over the same data must run no bias test and no fit; any
// change to an option or column the verdict reads must miss; and weights
// from the shared design must equal the one-attribute path bit for bit.
// Own binary: it flips the process-wide cache gate and resizes the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "info/info_cache.h"
#include "missing/ipw.h"
#include "missing/mask.h"
#include "query/group_by.h"
#include "table/table_builder.h"

namespace mesa {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

// A seeded world: 12 exposure groups, a per-group latent and a row latent
// driving the outcome. Candidates:
//   biased  numeric, nulls concentrated on high outcomes (IPW fires)
//   random  numeric, nulls at random
//   blocky  string per group, whole groups missing (blockwise missingness)
//   full    numeric, never null (no bias test)
//   empty   numeric, always null (all-missing: zero weights, no fit)
//   noise   numeric, never null
Table MakeWorld(uint64_t seed, size_t rows = 3000) {
  Rng rng(seed);
  constexpr size_t kGroups = 12;
  std::vector<double> u(kGroups);
  std::vector<bool> block_missing(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    u[g] = rng.NextGaussian();
    block_missing[g] = rng.NextBernoulli(0.3);
  }
  TableBuilder b(Schema({{"group", DataType::kString},
                         {"outcome", DataType::kDouble},
                         {"biased", DataType::kDouble},
                         {"random", DataType::kDouble},
                         {"blocky", DataType::kString},
                         {"full", DataType::kDouble},
                         {"empty", DataType::kDouble},
                         {"noise", DataType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    const size_t g = rng.NextBelow(kGroups);
    const double latent = rng.NextGaussian();
    const double outcome = 2.0 * u[g] + latent + rng.NextGaussian(0, 0.3);
    const bool drop_biased = outcome > 1.0 && rng.NextBernoulli(0.6);
    const bool drop_random = rng.NextBernoulli(0.2);
    MESA_CHECK(
        b.AppendRow({Value::String("g" + std::to_string(g)),
                     Value::Double(outcome),
                     drop_biased ? Value::Null() : Value::Double(latent),
                     drop_random ? Value::Null()
                                 : Value::Double(rng.NextGaussian()),
                     block_missing[g]
                         ? Value::Null()
                         : Value::String(u[g] > 0 ? "hi" : "lo"),
                     Value::Double(u[g] + rng.NextGaussian(0, 0.1)),
                     Value::Null(), Value::Double(rng.NextGaussian())})
            .ok());
  }
  return *b.Finish();
}

QuerySpec WorldQuery() {
  QuerySpec query;
  query.exposure = "group";
  query.outcome = "outcome";
  return query;
}

std::vector<std::string> WorldCandidates() {
  return {"biased", "random", "blocky", "full", "empty", "noise"};
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameAttributes(const QueryAnalysis& want, const QueryAnalysis& got,
                          const std::string& label) {
  ASSERT_EQ(want.attributes().size(), got.attributes().size()) << label;
  for (size_t i = 0; i < want.attributes().size(); ++i) {
    const PreparedAttribute& a = want.attributes()[i];
    const PreparedAttribute& b = got.attributes()[i];
    const std::string where = label + " attribute " + a.name;
    EXPECT_EQ(a.name, b.name) << where;
    EXPECT_EQ(a.coded.codes, b.coded.codes) << where;
    EXPECT_EQ(a.coded.cardinality, b.coded.cardinality) << where;
    EXPECT_EQ(a.missing_fraction, b.missing_fraction) << where;
    EXPECT_EQ(a.selection_biased, b.selection_biased) << where;
    EXPECT_TRUE(SameBits(a.weights, b.weights)) << where;
  }
  EXPECT_EQ(want.BaseCmi(), got.BaseCmi()) << label;
}

QueryAnalysis PrepareWorld(const Table& table, const PrepareOptions& options) {
  auto qa = QueryAnalysis::Prepare(table, WorldQuery(), WorldCandidates(), {},
                                   options);
  MESA_CHECK(qa.ok());
  return std::move(*qa);
}

std::string ExplainWorld(const Table& table) {
  Mesa mesa(table, nullptr, {});
  auto report = mesa.Explain(WorldQuery());
  MESA_CHECK(report.ok());
  return FormatReport(*report);
}

uint64_t Counter(const char* name) { return metrics::CounterValue(name); }

// Bias CI tests are the ci_test spans opened inside selection_bias.
uint64_t BiasCiTests() {
  uint64_t n = 0;
  for (const auto& [name, stats] : metrics::TakeSnapshot().distributions) {
    if (name.find("selection_bias/ci_test") != std::string::npos) {
      n += stats.count;
    }
  }
  return n;
}

class PrepareMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    info_cache::SetEnabled(true);
    info_cache::Clear();
  }
  void TearDown() override {
    SetNumThreads(1);
    info_cache::SetEnabled(true);
    info_cache::Clear();
  }
};

// ------------------------------------------------ memo on vs off, 20 seeds

TEST_F(PrepareMemoTest, MemoOnAndOffAreBitIdenticalAcrossSeedsAndThreads) {
  size_t biased_seen = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Table table = MakeWorld(1000 + seed);
    SetNumThreads(1);
    info_cache::SetEnabled(false);
    const QueryAnalysis reference = PrepareWorld(table, {});
    const std::string reference_report = ExplainWorld(table);
    for (const PreparedAttribute& a : reference.attributes()) {
      biased_seen += a.selection_biased ? 1 : 0;
    }

    // Memo on: the first thread count fills it, the later ones hit it.
    info_cache::SetEnabled(true);
    info_cache::Clear();
    for (size_t threads : kThreadCounts) {
      SetNumThreads(threads);
      const std::string label =
          "seed " + std::to_string(seed) + " threads " + std::to_string(threads);
      ExpectSameAttributes(reference, PrepareWorld(table, {}), label);
      EXPECT_EQ(reference_report, ExplainWorld(table)) << label;
    }
  }
  // The worlds must exercise the IPW path, not only unbiased verdicts.
  EXPECT_GE(biased_seen, 20u);
}

// -------------------------------------- a second Mesa pays for no prepare

TEST_F(PrepareMemoTest, SecondMesaRunsNoFitsAndNoBiasTests) {
  const Table table = MakeWorld(77);
  const uint64_t fits0 = Counter("missing/ipw_fits");
  const uint64_t tests0 = BiasCiTests();
  const uint64_t hits0 = Counter("missing/bias_memo/hit");
  const std::string first = ExplainWorld(table);
  const uint64_t fits1 = Counter("missing/ipw_fits");
  const uint64_t tests1 = BiasCiTests();
  ASSERT_GT(fits1, fits0);
  ASSERT_GT(tests1, tests0);

  const std::string second = ExplainWorld(table);
  EXPECT_EQ(Counter("missing/ipw_fits"), fits1);
  EXPECT_EQ(BiasCiTests(), tests1);
  EXPECT_GT(Counter("missing/bias_memo/hit"), hits0);
  EXPECT_EQ(first, second);

  // info_cache::Clear() drops the memo: the next explain pays again.
  info_cache::Clear();
  EXPECT_EQ(ExplainWorld(table), first);
  EXPECT_GT(Counter("missing/ipw_fits"), fits1);
}

// With the cache gate off (MESA_INFO_CACHE=OFF) the memo is never
// consulted: every explain tests and fits afresh.
TEST_F(PrepareMemoTest, DisabledCacheBypassesTheMemo) {
  info_cache::SetEnabled(false);
  const Table table = MakeWorld(78);
  const uint64_t lookups = Counter("missing/bias_memo/hit") +
                           Counter("missing/bias_memo/miss");
  const uint64_t fits0 = Counter("missing/ipw_fits");
  const std::string first = ExplainWorld(table);
  const uint64_t fits1 = Counter("missing/ipw_fits");
  EXPECT_GT(fits1, fits0);
  EXPECT_EQ(ExplainWorld(table), first);
  EXPECT_EQ(Counter("missing/ipw_fits") - fits1, fits1 - fits0);
  EXPECT_EQ(Counter("missing/bias_memo/hit") +
                Counter("missing/bias_memo/miss"),
            lookups);
}

// ------------------------------------------- key coverage: changes miss

TEST_F(PrepareMemoTest, ChangedOptionsOrCovariatesMissTheMemo) {
  const Table table = MakeWorld(5);
  // Candidates with nulls: biased, random, blocky, empty.
  constexpr uint64_t kWithNulls = 4;
  auto prepare_counting = [&](const PrepareOptions& options) {
    const uint64_t hits = Counter("missing/bias_memo/hit");
    const uint64_t misses = Counter("missing/bias_memo/miss");
    PrepareWorld(table, options);
    return std::make_pair(Counter("missing/bias_memo/hit") - hits,
                          Counter("missing/bias_memo/miss") - misses);
  };
  const PrepareOptions base;
  EXPECT_EQ(prepare_counting(base), std::make_pair(uint64_t{0}, kWithNulls));
  EXPECT_EQ(prepare_counting(base), std::make_pair(kWithNulls, uint64_t{0}));

  PrepareOptions clip = base;
  clip.ipw.clip = 0.05;
  EXPECT_EQ(prepare_counting(clip), std::make_pair(uint64_t{0}, kWithNulls));

  PrepareOptions alpha = base;
  alpha.bias.independence.alpha = 0.01;
  EXPECT_EQ(prepare_counting(alpha), std::make_pair(uint64_t{0}, kWithNulls));

  PrepareOptions covariates = base;
  covariates.ipw.covariates = {"group", "outcome", "noise"};
  EXPECT_EQ(prepare_counting(covariates),
            std::make_pair(uint64_t{0}, kWithNulls));
  // Same covariate names, different content: the covariate's bytes key.
  Table changed = table;
  ASSERT_TRUE(
      (*changed.MutableColumnByName("noise"))->Set(0, Value::Double(9.0)).ok());
  const uint64_t misses = Counter("missing/bias_memo/miss");
  auto qa = QueryAnalysis::Prepare(changed, WorldQuery(), WorldCandidates(),
                                   {}, covariates);
  ASSERT_TRUE(qa.ok());
  EXPECT_EQ(Counter("missing/bias_memo/miss") - misses, kWithNulls);
}

// --------------------------------------- shared design vs the one-shot path

// The pre-shared-design computation as an oracle: nested per-row design
// vectors standardized one covariate at a time, flattened only for the
// fit, and one vector-per-row predict.
std::vector<double> LegacyIpwWeights(const Table& table,
                                     const std::string& attribute,
                                     const IpwOptions& options) {
  const Column* attr = *table.ColumnByName(attribute);
  const size_t n = attr->size();
  std::vector<uint8_t> r = MissingnessIndicator(*attr);
  size_t observed = 0;
  for (uint8_t v : r) observed += v;
  const double marginal_rate =
      n == 0 ? 0.0 : static_cast<double>(observed) / n;
  std::vector<double> weights(n, 0.0);
  if (observed == 0 || observed == n) {
    if (observed == n) weights.assign(n, 1.0);
    return weights;
  }
  std::vector<std::vector<double>> x(
      n, std::vector<double>(options.covariates.size()));
  for (size_t c = 0; c < options.covariates.size(); ++c) {
    const std::string& name = options.covariates[c];
    const Column* col = *table.ColumnByName(name);
    std::vector<double> raw(n, 0.0);
    std::vector<uint8_t> ok(n, 0);
    if (col->type() == DataType::kString) {
      std::vector<int32_t> codes = *EncodeGroups(table, name, nullptr);
      for (size_t i = 0; i < n; ++i) {
        if (codes[i] >= 0) {
          raw[i] = static_cast<double>(codes[i]);
          ok[i] = 1;
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (col->IsValid(i)) {
          raw[i] = col->NumericAt(i);
          ok[i] = 1;
        }
      }
    }
    double mean = 0.0;
    size_t cnt = 0;
    for (size_t i = 0; i < n; ++i) {
      if (ok[i]) {
        mean += raw[i];
        ++cnt;
      }
    }
    mean = cnt > 0 ? mean / static_cast<double>(cnt) : 0.0;
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (ok[i]) {
        double d = raw[i] - mean;
        var += d * d;
      }
    }
    double sd = cnt > 1 ? std::sqrt(var / static_cast<double>(cnt - 1)) : 1.0;
    if (sd <= 0.0) sd = 1.0;
    for (size_t i = 0; i < n; ++i) {
      x[i][c] = ok[i] ? (raw[i] - mean) / sd : 0.0;
    }
  }
  std::vector<double> flat;
  for (const std::vector<double>& row : x) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  LogisticModel model =
      *FitLogistic(flat, options.covariates.size(), r, options.logistic);
  for (size_t i = 0; i < n; ++i) {
    if (!r[i]) continue;
    double p = std::clamp(model.PredictProbability(x[i]), options.clip,
                          1.0 - options.clip);
    weights[i] = marginal_rate / p;
  }
  return weights;
}

TEST(IpwDesign, SharedDesignWeightsEqualTheOneAttributePathBitForBit) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    const Table table = MakeWorld(seed, 2000);
    IpwOptions options;
    options.covariates = {"group", "outcome", "noise"};
    auto design = IpwDesign::Build(table, options.covariates);
    ASSERT_TRUE(design.ok());
    EXPECT_EQ(design->num_rows(), table.num_rows());
    EXPECT_EQ(design->width(), 3u);
    // biased/random need a fit; full is all-observed, empty all-missing.
    for (const char* name : {"biased", "random", "blocky", "full", "empty"}) {
      const std::string label = "seed " + std::to_string(seed) + " " + name;
      auto one_shot = ComputeIpwWeights(table, name, options);
      ASSERT_TRUE(one_shot.ok()) << label;
      std::vector<uint8_t> r =
          MissingnessIndicator(**table.ColumnByName(name));
      std::vector<double> shared;
      if (!TrivialIpwWeights(r, &shared)) {
        auto model = design->Fit(r, options.logistic);
        ASSERT_TRUE(model.ok()) << label;
        shared = design->Weights(r, *model, options.clip);
        // A memo hit rebuilds the model from its coefficients alone.
        LogisticModel rebuilt(model->coefficients());
        EXPECT_TRUE(SameBits(design->Weights(r, rebuilt, options.clip),
                             shared))
            << label;
      }
      EXPECT_TRUE(SameBits(shared, one_shot->weights)) << label;
      EXPECT_TRUE(SameBits(shared, LegacyIpwWeights(table, name, options)))
          << label;
    }
    // The trivial cases carry their documented weights.
    std::vector<double> w;
    ASSERT_TRUE(TrivialIpwWeights(
        MissingnessIndicator(**table.ColumnByName("full")), &w));
    EXPECT_EQ(w, std::vector<double>(table.num_rows(), 1.0));
    ASSERT_TRUE(TrivialIpwWeights(
        MissingnessIndicator(**table.ColumnByName("empty")), &w));
    EXPECT_EQ(w, std::vector<double>(table.num_rows(), 0.0));
  }
}

TEST(IpwDesign, MissingCovariateFailsCleanly) {
  const Table table = MakeWorld(9, 200);
  EXPECT_FALSE(IpwDesign::Build(table, {}).ok());
  EXPECT_FALSE(IpwDesign::Build(table, {"group", "ghost"}).ok());
}

}  // namespace
}  // namespace mesa
