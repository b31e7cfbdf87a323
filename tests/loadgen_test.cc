// Unit tests for the load-harness building blocks (src/loadgen/):
// seeded workload generation, deterministic schedules, pinned percentile
// math, counter deltas, and the JSON summary schema. The end-to-end
// load runs against a live Router live in serve_load_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/registry.h"
#include "loadgen/driver.h"
#include "loadgen/latency.h"
#include "loadgen/schedule.h"
#include "loadgen/summary.h"
#include "loadgen/workload.h"
#include "serve/json.h"

namespace mesa {
namespace loadgen {
namespace {

// ---------------------------------------------------------------------
// Workload generation.

class WorkloadGenTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto covid = MakeDataset(DatasetKind::kCovid);
    ASSERT_TRUE(covid.ok());
    GenOptions flights_gen;
    flights_gen.rows = 2000;
    auto flights = MakeDataset(DatasetKind::kFlights, flights_gen);
    ASSERT_TRUE(flights.ok());
    datasets_ = new std::vector<WorkloadDataset>;
    datasets_->push_back(MakeWorkloadDataset(
        "covid", covid->table, covid->extraction_columns, {"WHO_Region"}));
    datasets_->push_back(MakeWorkloadDataset("flights", flights->table,
                                             flights->extraction_columns,
                                             {"Origin_state"}));
  }
  static void TearDownTestSuite() {
    delete datasets_;
    datasets_ = nullptr;
  }

  static std::vector<WorkloadDataset>* datasets_;
};

std::vector<WorkloadDataset>* WorkloadGenTest::datasets_ = nullptr;

TEST_F(WorkloadGenTest, DrawPoolsAreNonEmpty) {
  for (const WorkloadDataset& dataset : *datasets_) {
    EXPECT_FALSE(dataset.exposures.empty()) << dataset.name;
    EXPECT_FALSE(dataset.outcomes.empty()) << dataset.name;
    EXPECT_FALSE(dataset.contexts.empty()) << dataset.name;
    // Outcomes never repeat an exposure column.
    for (const std::string& outcome : dataset.outcomes) {
      EXPECT_EQ(std::count(dataset.exposures.begin(), dataset.exposures.end(),
                           outcome),
                0)
          << dataset.name << "." << outcome;
    }
  }
}

TEST_F(WorkloadGenTest, SameSeedSameQuerySequence) {
  WorkloadOptions options;
  options.seed = 4242;
  options.distinct_queries = 10;
  auto first = GenerateWorkload(*datasets_, options);
  auto second = GenerateWorkload(*datasets_, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), 10u);
  ASSERT_EQ(second->size(), 10u);
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].RequestLine(), (*second)[i].RequestLine()) << i;
  }
}

TEST_F(WorkloadGenTest, DifferentSeedDifferentPool) {
  WorkloadOptions a;
  a.seed = 1;
  WorkloadOptions b;
  b.seed = 2;
  auto first = GenerateWorkload(*datasets_, a);
  auto second = GenerateWorkload(*datasets_, b);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  size_t differing = 0;
  for (size_t i = 0; i < first->size(); ++i) {
    if ((*first)[i].RequestLine() != (*second)[i].RequestLine()) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST_F(WorkloadGenTest, RoundRobinCoversEveryDataset) {
  WorkloadOptions options;
  options.distinct_queries = 7;
  auto queries = GenerateWorkload(*datasets_, options);
  ASSERT_TRUE(queries.ok());
  for (size_t i = 0; i < queries->size(); ++i) {
    EXPECT_EQ((*queries)[i].dataset, (*datasets_)[i % datasets_->size()].name)
        << i;
  }
}

TEST_F(WorkloadGenTest, QueriesAreDistinct) {
  WorkloadOptions options;
  options.distinct_queries = 12;
  auto queries = GenerateWorkload(*datasets_, options);
  ASSERT_TRUE(queries.ok());
  std::set<std::string> lines;
  for (const WorkloadQuery& query : *queries) {
    lines.insert(query.RequestLine());
  }
  EXPECT_EQ(lines.size(), queries->size());
}

TEST_F(WorkloadGenTest, RequestLineIsTheWireFormat) {
  WorkloadQuery query;
  query.dataset = "covid";
  query.sql = "SELECT X, AVG(Y) FROM T GROUP BY X";
  query.subgroups = {"WHO_Region"};
  auto parsed = serve::JsonValue::Parse(query.RequestLine());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("verb"), "explain");
  EXPECT_EQ(parsed->GetString("dataset"), "covid");
  EXPECT_EQ(parsed->GetString("sql"), query.sql);
  // No subgroups => no subgroups key (exactly what Client::Explain sends).
  query.subgroups.clear();
  EXPECT_EQ(query.RequestLine().find("subgroups"), std::string::npos);
}

TEST(WorkloadErrorsTest, EmptyInputsAreRejected) {
  EXPECT_FALSE(GenerateWorkload({}, WorkloadOptions()).ok());
  WorkloadDataset hollow;
  hollow.name = "hollow";
  EXPECT_FALSE(GenerateWorkload({hollow}, WorkloadOptions()).ok());
}

// ---------------------------------------------------------------------
// Schedules.

TEST(ScheduleTest, QueryIndexIsPureAndInRange) {
  for (size_t worker = 0; worker < 4; ++worker) {
    for (size_t request = 0; request < 16; ++request) {
      size_t index = QueryIndexFor(7, worker, request, 5);
      EXPECT_LT(index, 5u);
      EXPECT_EQ(index, QueryIndexFor(7, worker, request, 5));
    }
  }
}

TEST(ScheduleTest, QueryIndexCoversThePool) {
  std::set<size_t> seen;
  for (size_t request = 0; request < 200; ++request) {
    seen.insert(QueryIndexFor(11, 0, request, 6));
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(ScheduleTest, OpenLoopArrivalsDeterministic) {
  OpenLoopOptions options;
  options.seed = 99;
  options.target_qps = 1000.0;
  options.total_requests = 64;
  std::vector<uint64_t> first = OpenLoopArrivalsNs(options);
  std::vector<uint64_t> second = OpenLoopArrivalsNs(options);
  ASSERT_EQ(first.size(), 64u);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
}

TEST(ScheduleTest, OpenLoopMeanInterArrivalTracksRate) {
  OpenLoopOptions options;
  options.seed = 5;
  options.target_qps = 100.0;  // mean gap 10ms.
  options.total_requests = 2000;
  std::vector<uint64_t> arrivals = OpenLoopArrivalsNs(options);
  double mean_gap_ms =
      static_cast<double>(arrivals.back()) / (arrivals.size() * 1e6);
  EXPECT_GT(mean_gap_ms, 8.0);
  EXPECT_LT(mean_gap_ms, 12.0);
}

TEST(ScheduleTest, OpenLoopDegenerateInputsYieldNothing) {
  OpenLoopOptions options;
  options.total_requests = 0;
  EXPECT_TRUE(OpenLoopArrivalsNs(options).empty());
  options.total_requests = 8;
  options.target_qps = 0.0;
  EXPECT_TRUE(OpenLoopArrivalsNs(options).empty());
  options.target_qps = -3.0;
  EXPECT_TRUE(OpenLoopArrivalsNs(options).empty());
}

// ---------------------------------------------------------------------
// Percentiles — pinned against hand-computed nearest-rank fixtures.

TEST(PercentileTest, HundredSamples) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 100.0), 100.0);
}

TEST(PercentileTest, FourSamples) {
  // N=4: rank(50) = ceil(2) = 2 -> 20; rank(95) = ceil(3.8) = 4 -> 40.
  std::vector<double> samples = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 50.0), 20.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 95.0), 40.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(samples, 99.0), 40.0);
}

TEST(PercentileTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(PercentileNearestRank({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({7.0}, 99.0), 7.0);
}

TEST(PercentileTest, ComputeLatencyStatsSortsItsInput) {
  LatencyStats stats = ComputeLatencyStats({30.0, 10.0, 40.0, 20.0});
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.p50_ms, 20.0);
  EXPECT_DOUBLE_EQ(stats.p95_ms, 40.0);
  EXPECT_DOUBLE_EQ(stats.max_ms, 40.0);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 25.0);
  LatencyStats empty = ComputeLatencyStats({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99_ms, 0.0);
}

// ---------------------------------------------------------------------
// The driver against a scripted target: classification + fingerprints
// without a real service in the loop.

// Replies deterministically from the request line itself; every Nth
// call per instance is shed. One instance per worker, like real targets.
class ScriptedTarget : public RequestTarget {
 public:
  explicit ScriptedTarget(size_t shed_every) : shed_every_(shed_every) {}
  Result<std::string> Call(const std::string& request_line) override {
    ++calls_;
    if (shed_every_ > 0 && calls_ % shed_every_ == 0) {
      return std::string(
          "{\"ok\":false,\"code\":\"resource_exhausted\",\"error\":\"shed\"}");
    }
    auto request = serve::JsonValue::Parse(request_line);
    if (!request.ok()) return request.status();
    serve::JsonValue reply = serve::JsonValue::Object();
    reply.Set("ok", serve::JsonValue::Bool(true));
    reply.Set("report",
              serve::JsonValue::Str("echo:" + request->GetString("sql")));
    return reply.Serialize();
  }

 private:
  size_t shed_every_;
  size_t calls_ = 0;
};

std::vector<WorkloadQuery> ScriptedQueries(size_t n) {
  std::vector<WorkloadQuery> queries;
  for (size_t i = 0; i < n; ++i) {
    WorkloadQuery query;
    query.dataset = "scripted";
    query.sql = "SELECT q" + std::to_string(i);
    queries.push_back(query);
  }
  return queries;
}

TEST(DriverTest, ClosedLoopFingerprintsReproduce) {
  DriverOptions options;
  options.mode = LoadMode::kClosed;
  options.seed = 321;
  options.workers = 4;
  options.requests_per_worker = 8;
  options.capture_replies = true;
  TargetFactory factory = [](size_t) {
    return Result<std::unique_ptr<RequestTarget>>(
        std::unique_ptr<RequestTarget>(new ScriptedTarget(0)));
  };
  auto first = RunWorkload(ScriptedQueries(5), factory, options);
  auto second = RunWorkload(ScriptedQueries(5), factory, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->attempted, 32u);
  EXPECT_EQ(first->ok, 32u);
  EXPECT_EQ(first->request_fingerprint, second->request_fingerprint);
  EXPECT_EQ(first->reply_fingerprint, second->reply_fingerprint);
  ASSERT_EQ(first->logs.size(), 4u);
  for (const WorkerLog& log : first->logs) {
    EXPECT_EQ(log.records.size(), 8u);
    for (const LatencyRecord& record : log.records) {
      EXPECT_TRUE(record.ok);
      EXPECT_EQ(record.report.rfind("echo:SELECT q", 0), 0u);
    }
  }
}

TEST(DriverTest, ShedsAreClassifiedNotErrored) {
  DriverOptions options;
  options.workers = 2;
  options.requests_per_worker = 6;
  TargetFactory factory = [](size_t) {
    return Result<std::unique_ptr<RequestTarget>>(
        std::unique_ptr<RequestTarget>(new ScriptedTarget(3)));
  };
  auto result = RunWorkload(ScriptedQueries(4), factory, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->attempted, 12u);
  EXPECT_EQ(result->shed, 4u);  // every 3rd of 6, per worker.
  EXPECT_EQ(result->ok, 8u);
  EXPECT_EQ(result->errors, 0u);
}

TEST(DriverTest, OpenLoopIssuesEveryArrival) {
  DriverOptions options;
  options.mode = LoadMode::kOpen;
  options.seed = 17;
  options.workers = 3;
  options.target_qps = 5000.0;
  options.total_requests = 20;
  TargetFactory factory = [](size_t) {
    return Result<std::unique_ptr<RequestTarget>>(
        std::unique_ptr<RequestTarget>(new ScriptedTarget(0)));
  };
  auto first = RunWorkload(ScriptedQueries(4), factory, options);
  auto second = RunWorkload(ScriptedQueries(4), factory, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->attempted, 20u);
  EXPECT_EQ(first->ok, 20u);
  EXPECT_EQ(first->request_fingerprint, second->request_fingerprint);
  EXPECT_EQ(first->reply_fingerprint, second->reply_fingerprint);
}

// Open loop must not hide queueing (coordinated omission): with one
// worker, a reply slower than the gap to the next arrival delays the
// next pickup, and that wait must show up in the next request's latency
// and in its generator lateness.
class SlowFirstReplyTarget : public RequestTarget {
 public:
  Result<std::string> Call(const std::string&) override {
    if (calls_++ == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return std::string("{\"ok\":true,\"report\":\"r\"}");
  }

 private:
  size_t calls_ = 0;
};

TEST(DriverTest, OpenLoopLatencyCountsTheWaitBehindASlowReply) {
  DriverOptions options;
  options.mode = LoadMode::kOpen;
  options.seed = 5;
  options.workers = 1;
  options.target_qps = 10000.0;  // arrivals ~0.1 ms apart.
  options.total_requests = 2;
  const std::vector<uint64_t> arrivals =
      OpenLoopArrivalsNs({options.seed, options.target_qps, 2});
  ASSERT_EQ(arrivals.size(), 2u);
  const uint64_t gap_ns = arrivals[1] - arrivals[0];
  ASSERT_LT(gap_ns, 50'000'000u);
  TargetFactory factory = [](size_t) {
    return Result<std::unique_ptr<RequestTarget>>(
        std::unique_ptr<RequestTarget>(new SlowFirstReplyTarget()));
  };
  auto result = RunWorkload(ScriptedQueries(2), factory, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->logs.size(), 1u);
  const std::vector<LatencyRecord>& records = result->logs[0].records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GE(records[0].duration_ns, 100'000'000u);
  // The second request was due ~gap after the first but could only be
  // picked up once the 100 ms reply arrived.
  const uint64_t waited_ns = 100'000'000u - gap_ns;
  EXPECT_EQ(records[1].start_ns, arrivals[1]);
  EXPECT_GE(records[1].late_ns, waited_ns);
  EXPECT_GE(records[1].duration_ns, waited_ns);
  EXPECT_GE(records[1].duration_ns, records[1].late_ns);

  WorkloadSummary summary = Summarize(options, *result, 2);
  EXPECT_EQ(summary.late.count, 2u);
  EXPECT_GE(summary.late.max_ms, static_cast<double>(waited_ns) / 1e6);
  EXPECT_NE(SummaryToText(summary).find("generator lateness"),
            std::string::npos);
}

TEST(DriverTest, TargetFactoryFailureFailsTheRunUpFront) {
  DriverOptions options;
  options.workers = 2;
  TargetFactory factory = [](size_t worker)
      -> Result<std::unique_ptr<RequestTarget>> {
    if (worker == 1) return Status::Unavailable("no connection");
    return std::unique_ptr<RequestTarget>(new ScriptedTarget(0));
  };
  EXPECT_FALSE(RunWorkload(ScriptedQueries(2), factory, options).ok());
}

// ---------------------------------------------------------------------
// Counter maps + the JSON summary schema.

TEST(SummaryTest, CounterDeltaSemantics) {
  CounterMap before = {{"serve/requests", 10}, {"serve/errors", 2}};
  CounterMap after = {{"serve/requests", 25}, {"info_cache/scalar_hit", 7}};
  CounterMap delta = CounterDelta(before, after);
  EXPECT_EQ(delta["serve/requests"], 15u);
  EXPECT_EQ(delta["info_cache/scalar_hit"], 7u);  // new name counts from 0.
  EXPECT_EQ(delta.count("serve/errors"), 0u);     // gone from after: dropped.
}

TEST(SummaryTest, ParseCountersJsonFiltersByPrefix) {
  const std::string metrics_json =
      "{\"counters\":{\"serve/requests\":3,\"kg/endpoint_calls\":9,"
      "\"info_cache/scalar_hit\":4},\"distributions\":{}}";
  auto counters = ParseCountersJson(metrics_json, DefaultCounterPrefixes());
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->size(), 2u);
  EXPECT_EQ((*counters)["serve/requests"], 3u);
  EXPECT_EQ((*counters)["info_cache/scalar_hit"], 4u);
}

TEST(SummaryTest, JsonSummaryRoundTripsThroughTheParser) {
  DriverOptions options;
  options.mode = LoadMode::kOpen;
  options.seed = 77;
  options.workers = 3;
  RunResult result;
  result.logs.resize(3);
  LatencyRecord record;
  record.ok = true;
  record.duration_ns = 2000000;  // 2ms.
  result.logs[0].records.push_back(record);
  result.wall_seconds = 0.5;
  result.attempted = 4;
  result.ok = 1;
  result.shed = 2;
  result.errors = 1;
  result.request_fingerprint = 0xdeadbeef01234567ULL;
  result.reply_fingerprint = 0x1122334455667788ULL;
  WorkloadSummary summary = Summarize(options, result, 6,
                                      {{"serve/requests", 4}});
  EXPECT_DOUBLE_EQ(summary.shed_rate, 0.5);
  EXPECT_DOUBLE_EQ(summary.qps, 8.0);

  auto parsed = serve::JsonValue::Parse(SummaryToJson(summary));
  ASSERT_TRUE(parsed.ok());
  const serve::JsonValue* workload = parsed->Find("workload");
  ASSERT_NE(workload, nullptr);
  EXPECT_EQ(workload->GetString("mode"), "open");
  EXPECT_EQ(workload->GetNumber("seed"), 77.0);
  EXPECT_EQ(workload->GetNumber("attempted"), 4.0);
  EXPECT_EQ(workload->GetNumber("shed"), 2.0);
  EXPECT_EQ(workload->GetString("request_fingerprint"), "0xdeadbeef01234567");
  EXPECT_EQ(workload->GetString("reply_fingerprint"), "0x1122334455667788");
  const serve::JsonValue* latency = workload->Find("latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->GetNumber("count"), 1.0);
  EXPECT_DOUBLE_EQ(latency->GetNumber("p50"), 2.0);
  const serve::JsonValue* deltas = workload->Find("counter_deltas");
  ASSERT_NE(deltas, nullptr);
  EXPECT_EQ(deltas->GetNumber("serve/requests"), 4.0);
}

}  // namespace
}  // namespace loadgen
}  // namespace mesa
