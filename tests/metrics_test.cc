#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/mesa.h"
#include "datagen/registry.h"

namespace mesa {
namespace {

using metrics::CounterValue;

// Tests use unique metric names (other tests in this binary run the real
// pipeline, which touches the shared registry) and assert on deltas.

TEST(MetricsCounter, SingleThreadExact) {
  metrics::Counter& c = metrics::GetCounter("test/counter_single");
  const uint64_t before = c.Value();
  for (int i = 0; i < 1000; ++i) MESA_COUNT("test/counter_single");
  MESA_COUNT_N("test/counter_single", 42);
  EXPECT_EQ(c.Value() - before, 1042u);
}

TEST(MetricsCounter, MultiThreadSumsMatch) {
  const size_t prev_threads = NumThreads();
  SetNumThreads(8);
  metrics::Counter& c = metrics::GetCounter("test/counter_mt");
  const uint64_t before = c.Value();
  constexpr size_t kIters = 100000;
  ParallelFor(0, kIters, [&](size_t i) {
    MESA_COUNT("test/counter_mt");
    if (i % 10 == 0) MESA_COUNT_N("test/counter_mt", 2);
  });
  SetNumThreads(prev_threads);
  EXPECT_EQ(c.Value() - before, kIters + 2 * (kIters / 10));
}

TEST(MetricsCounter, RuntimeDisableStopsCollection) {
  metrics::Counter& c = metrics::GetCounter("test/counter_disabled");
  const uint64_t before = c.Value();
  metrics::SetEnabled(false);
  MESA_COUNT("test/counter_disabled");
  metrics::SetEnabled(true);
  EXPECT_EQ(c.Value() - before, 0u);
  MESA_COUNT("test/counter_disabled");
  EXPECT_EQ(c.Value() - before, 1u);
}

TEST(MetricsCounter, CounterValueLookupDoesNotCreate) {
  EXPECT_EQ(CounterValue("test/never_touched_counter"), 0u);
  auto snapshot = metrics::TakeSnapshot();
  for (const auto& [name, value] : snapshot.counters) {
    (void)value;
    EXPECT_NE(name, "test/never_touched_counter");
  }
}

TEST(MetricsDistribution, ExactMomentsAndQuantileEstimates) {
  metrics::Distribution& d = metrics::GetDistribution("test/dist_values");
  const auto before = d.GetStats();
  for (int v = 1; v <= 1000; ++v) d.Record(static_cast<double>(v));
  const auto stats = d.GetStats();
  EXPECT_EQ(stats.count - before.count, 1000u);
  EXPECT_DOUBLE_EQ(stats.sum - before.sum, 500500.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 1000.0);
  // Quantiles come from a log histogram with 4 buckets/octave: <= ~9%
  // relative error, so give it 15% headroom.
  EXPECT_NEAR(stats.p50, 500.0, 75.0);
  EXPECT_NEAR(stats.p99, 990.0, 150.0);
}

TEST(MetricsDistribution, MultiThreadRecordsAllLand) {
  metrics::Distribution& d = metrics::GetDistribution("test/dist_mt");
  const auto before = d.GetStats();
  constexpr size_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&d] {
      for (size_t i = 0; i < kPerThread; ++i) d.Record(3.0);
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = d.GetStats();
  EXPECT_EQ(stats.count - before.count, 4 * kPerThread);
  EXPECT_DOUBLE_EQ(stats.sum - before.sum, 3.0 * 4 * kPerThread);
}

TEST(MetricsSpan, NestedSpansBuildSlashPaths) {
  const std::string outer = "test_span_outer";
  const std::string inner = "test_span_inner";
  const uint64_t outer_before =
      metrics::GetDistribution(outer).GetStats().count;
  const uint64_t nested_before =
      metrics::GetDistribution(outer + "/" + inner).GetStats().count;
  {
    MESA_SPAN("test_span_outer");
    EXPECT_EQ(metrics::CurrentPath(), outer);
    MESA_SPAN("test_span_inner");
    EXPECT_EQ(metrics::CurrentPath(), outer + "/" + inner);
  }
  EXPECT_EQ(metrics::CurrentPath(), "");
  EXPECT_EQ(metrics::GetDistribution(outer).GetStats().count - outer_before,
            1u);
  EXPECT_EQ(metrics::GetDistribution(outer + "/" + inner).GetStats().count -
                nested_before,
            1u);
}

TEST(MetricsSpan, PathPropagatesIntoPoolWorkers) {
  const size_t prev_threads = NumThreads();
  SetNumThreads(4);
  const std::string nested = "test_prop_outer/test_prop_unit";
  const uint64_t before = metrics::GetDistribution(nested).GetStats().count;
  constexpr size_t kTasks = 64;
  {
    MESA_SPAN("test_prop_outer");
    ParallelFor(0, kTasks, [](size_t) { MESA_SPAN("test_prop_unit"); });
  }
  SetNumThreads(prev_threads);
  // Every task's span lands under the caller's path, no matter which
  // pool thread ran it — paths are invariant to the pool size.
  EXPECT_EQ(metrics::GetDistribution(nested).GetStats().count - before,
            kTasks);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  metrics::Counter& c = metrics::GetCounter("test/reset_counter");
  metrics::Distribution& d = metrics::GetDistribution("test/reset_dist");
  c.Add(5);
  d.Record(7.0);
  metrics::ResetAll();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(d.GetStats().count, 0u);
  EXPECT_DOUBLE_EQ(d.GetStats().sum, 0.0);
  // Handles stay live after reset.
  c.Add(2);
  EXPECT_EQ(c.Value(), 2u);
  EXPECT_EQ(CounterValue("test/reset_counter"), 2u);
}

TEST(MetricsRegistry, JsonSnapshotShape) {
  metrics::GetCounter("test/json_counter").Add(3);
  metrics::GetDistribution("test/json_dist").Record(2.5);
  std::string json = metrics::SnapshotJson();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"distributions\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test/json_counter\":"), std::string::npos);
  EXPECT_NE(json.find("\"test/json_dist\":{\"count\":1,"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Names are escaped JSON strings; no raw control characters leak out.
  for (char ch : json) {
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20);
  }
}

// End-to-end: running the pipeline populates the counters the paper's
// evaluation reports (CMI evaluations, cache hits/misses, span timings).
TEST(MetricsPipeline, ExplainPopulatesPipelineMetrics) {
  auto ds = MakeDataset(DatasetKind::kCovid, GenOptions{});
  ASSERT_TRUE(ds.ok());
  const uint64_t cmi_before = CounterValue("info/cmi_evals");
  const uint64_t miss_before = CounterValue("qa/single_cmi/miss");
  Mesa mesa(ds->table, ds->kg.get(), ds->extraction_columns);
  auto report = mesa.Explain(CanonicalQueries(DatasetKind::kCovid)[0].query);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(CounterValue("info/cmi_evals"), cmi_before);
  EXPECT_GT(CounterValue("qa/single_cmi/miss"), miss_before);
  std::string json = metrics::SnapshotJson();
  EXPECT_NE(json.find("\"explain\""), std::string::npos);
  EXPECT_NE(json.find("\"explain/prepare_query\""), std::string::npos);
}

}  // namespace
}  // namespace mesa
