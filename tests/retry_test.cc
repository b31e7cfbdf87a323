#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/retry.h"
#include "kg/endpoint.h"
#include "kg/fault_injection.h"
#include "kg/resilient_client.h"
#include "kg/triple_store.h"

namespace mesa {
namespace {

// ------------------------------------------------------------ IsRetryable

TEST(IsRetryable, TransientCodesOnly) {
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(IsRetryable(StatusCode::kOk));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryable(StatusCode::kIOError));
}

TEST(Status, NewTransientFactories) {
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
  EXPECT_EQ(Status::DeadlineExceeded("x").ToString(), "DeadlineExceeded: x");
  EXPECT_EQ(Status::ResourceExhausted("x").ToString(),
            "ResourceExhausted: x");
}

// -------------------------------------------------------------- RetryCall

TEST(RetryCall, FirstAttemptSuccess) {
  VirtualClock clock;
  RetryResult r = RetryCall(RetryOptions{}, &clock, nullptr, 1,
                            [] { return Status::OK(); });
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_FALSE(r.retried);
  EXPECT_EQ(r.waited_ms, 0u);
  EXPECT_EQ(clock.NowMs(), 0u);
}

TEST(RetryCall, TransientFailuresAreRetriedUntilSuccess) {
  VirtualClock clock;
  int calls = 0;
  RetryResult r = RetryCall(RetryOptions{}, &clock, nullptr, 2, [&] {
    return ++calls < 3 ? Status::Unavailable("flaky") : Status::OK();
  });
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_TRUE(r.retried);
  EXPECT_GT(r.waited_ms, 0u);
  // All waiting happened on the virtual clock, none on the wall clock.
  EXPECT_EQ(clock.NowMs(), r.waited_ms);
}

TEST(RetryCall, PermanentFailureIsNotRetried) {
  VirtualClock clock;
  int calls = 0;
  RetryResult r = RetryCall(RetryOptions{}, &clock, nullptr, 3, [&] {
    ++calls;
    return Status::Internal("malformed");
  });
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(r.retried);
}

TEST(RetryCall, DeadlineBoundsUnboundedRetries) {
  VirtualClock clock;
  RetryOptions options;
  options.max_attempts = 0;  // unbounded: the deadline is the stop condition
  options.deadline_ms = 200;
  int calls = 0;
  RetryResult r = RetryCall(options, &clock, nullptr, 4, [&] {
    ++calls;
    return Status::Unavailable("down for good");
  });
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(calls, 1);
  EXPECT_LE(clock.NowMs(), 200u);
}

TEST(RetryCall, MaxAttemptsBound) {
  VirtualClock clock;
  RetryOptions options;
  options.max_attempts = 3;
  RetryResult r = RetryCall(options, &clock, nullptr, 5,
                            [] { return Status::ResourceExhausted("429"); });
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_NE(r.status.message().find("after 3 attempts"), std::string::npos);
}

TEST(RetryCall, BackoffScheduleIsAPureFunctionOfTheCallKey) {
  auto run = [](uint64_t key) {
    VirtualClock clock;
    int calls = 0;
    RetryResult r = RetryCall(RetryOptions{}, &clock, nullptr, key, [&] {
      return ++calls < 5 ? Status::Unavailable("flaky") : Status::OK();
    });
    return r.waited_ms;
  };
  EXPECT_EQ(run(7), run(7));      // same key -> identical schedule
  EXPECT_NE(run(7), run(8));      // different key -> different jitter stream
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreaker, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(BreakerOptions{2, 100, ""});
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);

  uint64_t retry_at = 0;
  EXPECT_FALSE(breaker.Allow(50, &retry_at));
  EXPECT_EQ(retry_at, 101u);  // opened at t=1 + cooldown 100
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker breaker(BreakerOptions{2, 100, ""});
  breaker.RecordFailure(0);
  breaker.RecordSuccess();
  breaker.RecordFailure(1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  CircuitBreaker breaker(BreakerOptions{1, 100, ""});
  breaker.RecordFailure(0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  uint64_t retry_at = 0;
  EXPECT_TRUE(breaker.Allow(100, &retry_at));  // cooldown elapsed: probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  // Only one probe may fly at a time.
  EXPECT_FALSE(breaker.Allow(100, &retry_at));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopens) {
  CircuitBreaker breaker(BreakerOptions{1, 100, ""});
  breaker.RecordFailure(0);
  uint64_t retry_at = 0;
  ASSERT_TRUE(breaker.Allow(100, &retry_at));
  breaker.RecordFailure(100);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  EXPECT_FALSE(breaker.Allow(150, &retry_at));
  EXPECT_EQ(retry_at, 200u);  // cooldown restarted at the probe failure
}

TEST(RetryCall, OpenBreakerIsWaitedOutNotFailedFast) {
  VirtualClock clock;
  CircuitBreaker breaker(BreakerOptions{1, 100, ""});
  breaker.RecordFailure(0);  // breaker starts open
  int calls = 0;
  RetryResult r = RetryCall(RetryOptions{}, &clock, &breaker, 6, [&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_GE(r.waited_ms, 100u);  // cooldown converted into latency
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ------------------------------------------------------------ StableHash64

TEST(StableHash64, MatchesFnv1aReferenceValues) {
  // Published FNV-1a 64-bit vectors; pinning them keeps fault plans and
  // retry schedules stable across standard libraries and platforms.
  EXPECT_EQ(StableHash64(""), 14695981039346656037ULL);
  EXPECT_EQ(StableHash64("a"), 12638187200555641996ULL);
  EXPECT_EQ(StableHash64("foobar"), 9625390261332436968ULL);
}

// --------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParseEmptyHasNoFaults) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->has_faults());
}

TEST(FaultPlan, ParseRatesSeedAndLatency) {
  auto plan = FaultPlan::Parse(
      "seed=42; timeout=0.15, rate_limit=0.1; unavailable=0.05;"
      "truncate=0.02; malformed=0.01; fail_keys=0.03; latency=1:5");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->has_faults());
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_DOUBLE_EQ(plan->rates.timeout, 0.15);
  EXPECT_DOUBLE_EQ(plan->rates.rate_limit, 0.1);
  EXPECT_DOUBLE_EQ(plan->rates.unavailable, 0.05);
  EXPECT_DOUBLE_EQ(plan->rates.truncate, 0.02);
  EXPECT_DOUBLE_EQ(plan->rates.malformed, 0.01);
  EXPECT_DOUBLE_EQ(plan->rates.fail_keys, 0.03);
  EXPECT_EQ(plan->rates.latency_min_ms, 1u);
  EXPECT_EQ(plan->rates.latency_max_ms, 5u);
}

TEST(FaultPlan, ParseFixedLatency) {
  auto plan = FaultPlan::Parse("latency=7");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->rates.latency_min_ms, 7u);
  EXPECT_EQ(plan->rates.latency_max_ms, 7u);
  EXPECT_TRUE(plan->has_faults());
}

TEST(FaultPlan, PerOpOverrideStartsFromTheDefaults) {
  auto plan = FaultPlan::Parse("timeout=0.5; properties.timeout=0.0");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->RatesFor("resolve").timeout, 0.5);
  EXPECT_DOUBLE_EQ(plan->RatesFor("properties").timeout, 0.0);
}

TEST(FaultPlan, RejectsGarbage) {
  EXPECT_FALSE(FaultPlan::Parse("frobnicate=1").ok());       // unknown key
  EXPECT_FALSE(FaultPlan::Parse("timeout=1.5").ok());        // rate > 1
  EXPECT_FALSE(FaultPlan::Parse("timeout=-0.1").ok());       // rate < 0
  EXPECT_FALSE(FaultPlan::Parse("timeout=abc").ok());        // not a number
  EXPECT_FALSE(FaultPlan::Parse("latency=5:1").ok());        // min > max
  EXPECT_FALSE(FaultPlan::Parse("latency=1:2:3").ok());      // bad shape
  EXPECT_FALSE(FaultPlan::Parse("teleport.timeout=1").ok()); // unknown op
  EXPECT_FALSE(FaultPlan::Parse("describe.timeout=1").ok()); // no such op
  EXPECT_FALSE(FaultPlan::Parse("timeout").ok());            // missing '='
}

TEST(FaultPlan, FromEnvReadsAndValidates) {
  ::setenv("MESA_FAULT_PLAN", "seed=9;timeout=0.25", 1);
  auto plan = FaultPlan::FromEnv();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_DOUBLE_EQ(plan->rates.timeout, 0.25);

  ::setenv("MESA_FAULT_PLAN", "not a plan", 1);
  EXPECT_FALSE(FaultPlan::FromEnv().ok());

  ::unsetenv("MESA_FAULT_PLAN");
  auto unset = FaultPlan::FromEnv();
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset->has_faults());
}

// ----------------------------------------------------------- endpoint stack

TripleStore MakeKg() {
  TripleStore kg;
  EntityId de = *kg.AddEntity("Germany", "Country");
  EntityId fr = *kg.AddEntity("France", "Country");
  EXPECT_TRUE(kg.AddLiteral(de, "hdi", Value::Double(0.94)).ok());
  EXPECT_TRUE(kg.AddLiteral(fr, "hdi", Value::Double(0.90)).ok());
  EXPECT_TRUE(kg.AddEdge(de, "neighbor", fr).ok());
  return kg;
}

TEST(LocalEndpoint, AnswersFromTheStore) {
  TripleStore kg = MakeKg();
  LocalEndpoint ep(&kg);

  auto link = ep.Resolve("Germany", EntityLinkerOptions{});
  ASSERT_TRUE(link.ok());
  ASSERT_TRUE(link->linked());

  auto props = ep.Properties(*link->entity);
  ASSERT_TRUE(props.ok());
  ASSERT_EQ(props->size(), 2u);
  EXPECT_EQ((*props)[0].predicate, "hdi");
  EXPECT_FALSE((*props)[0].is_entity);
  EXPECT_TRUE((*props)[1].is_entity);
  EXPECT_EQ((*props)[1].entity_label, "France");  // label inlined
  EXPECT_FALSE(ep.Properties(99).ok());
}

TEST(FaultInjectingEndpoint, CertainTimeoutAlwaysFaults) {
  TripleStore kg = MakeKg();
  auto plan = FaultPlan::Parse("seed=1;timeout=1.0");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEndpoint ep(std::make_shared<LocalEndpoint>(&kg), *plan);

  for (int i = 0; i < 3; ++i) {
    auto r = ep.Resolve("Germany", EntityLinkerOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(ep.counters().calls, 3u);
  EXPECT_EQ(ep.counters().faults, 3u);
}

TEST(FaultInjectingEndpoint, FailKeysIsPermanentPerArgument) {
  TripleStore kg = MakeKg();
  auto plan = FaultPlan::Parse("seed=1;fail_keys=1.0");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEndpoint ep(std::make_shared<LocalEndpoint>(&kg), *plan);

  // Every retry of the same argument fails identically (kInternal: the
  // resilient client must not burn its budget on these).
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto r = ep.Resolve("Germany", EntityLinkerOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  }
}

TEST(FaultInjectingEndpoint, FaultSequenceIsDeterministic) {
  TripleStore kg = MakeKg();
  auto plan = FaultPlan::Parse("seed=5;timeout=0.3;rate_limit=0.2");
  ASSERT_TRUE(plan.ok());

  auto run = [&] {
    FaultInjectingEndpoint ep(std::make_shared<LocalEndpoint>(&kg), *plan);
    std::vector<StatusCode> codes;
    for (int i = 0; i < 20; ++i) {
      codes.push_back(
          ep.Resolve(i % 2 ? "Germany" : "France", EntityLinkerOptions{})
              .status()
              .code());
    }
    return codes;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjectingEndpoint, InjectedLatencyAdvancesTheBoundClock) {
  TripleStore kg = MakeKg();
  auto plan = FaultPlan::Parse("seed=1;latency=5");
  ASSERT_TRUE(plan.ok());
  FaultInjectingEndpoint ep(std::make_shared<LocalEndpoint>(&kg), *plan);
  VirtualClock clock;
  ep.BindClock(&clock);
  ASSERT_TRUE(ep.Resolve("Germany", EntityLinkerOptions{}).ok());
  EXPECT_EQ(clock.NowMs(), 5u);
}

// ------------------------------------------------------- ResilientKgClient

TEST(ResilientKgClient, MasksTransientFaultsExactly) {
  TripleStore kg = MakeKg();
  auto plan =
      FaultPlan::Parse("seed=11;timeout=0.4;rate_limit=0.2;unavailable=0.1");
  ASSERT_TRUE(plan.ok());

  ResilientKgClient reliable(std::make_shared<LocalEndpoint>(&kg));
  ResilientKgClient faulty(
      std::make_shared<FaultInjectingEndpoint>(
          std::make_shared<LocalEndpoint>(&kg), *plan));

  for (const char* name : {"Germany", "France", "Atlantis"}) {
    auto a = reliable.Resolve(name, EntityLinkerOptions{});
    auto b = faulty.Resolve(name, EntityLinkerOptions{});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok()) << name << ": " << b.status().ToString();
    EXPECT_EQ(a->outcome, b->outcome);
    EXPECT_EQ(a->entity, b->entity);
  }
  for (EntityId id : {EntityId{0}, EntityId{1}}) {
    auto a = reliable.Properties(id);
    auto b = faulty.Properties(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].predicate, (*b)[i].predicate);
    }
  }
  // The masking was not free: some calls needed retries, all on the
  // virtual clock.
  EXPECT_GT(faulty.counters().attempts, faulty.counters().calls);
  EXPECT_GT(faulty.counters().calls_retried, 0u);
  EXPECT_EQ(faulty.counters().failures, 0u);
  EXPECT_GT(faulty.clock().NowMs(), 0u);
}

TEST(ResilientKgClient, CachesPositiveResolveResponses) {
  TripleStore kg = MakeKg();
  ResilientKgClient client(std::make_shared<LocalEndpoint>(&kg));
  ASSERT_TRUE(client.Resolve("Germany", EntityLinkerOptions{}).ok());
  uint64_t attempts_after_first = client.counters().attempts;
  ASSERT_TRUE(client.Resolve("Germany", EntityLinkerOptions{}).ok());
  EXPECT_EQ(client.counters().attempts, attempts_after_first);
  EXPECT_EQ(client.counters().cache_hits, 1u);
}

TEST(ResilientKgClient, BulkPayloadsAreRefetchedNotCached) {
  // Properties payloads are deliberately not retained: refetching is
  // cheap next to copying and holding every payload forever.
  TripleStore kg = MakeKg();
  ResilientKgClient client(std::make_shared<LocalEndpoint>(&kg));
  ASSERT_TRUE(client.Properties(0).ok());
  uint64_t attempts_after_first = client.counters().attempts;
  ASSERT_TRUE(client.Properties(0).ok());
  EXPECT_EQ(client.counters().attempts, attempts_after_first + 1);
  EXPECT_EQ(client.counters().cache_hits, 0u);
}

TEST(ResilientKgClient, CachesPermanentFailuresNegatively) {
  TripleStore kg = MakeKg();
  auto plan = FaultPlan::Parse("seed=1;fail_keys=1.0");
  ASSERT_TRUE(plan.ok());
  ResilientKgClient client(std::make_shared<FaultInjectingEndpoint>(
      std::make_shared<LocalEndpoint>(&kg), *plan));

  auto first = client.Resolve("Germany", EntityLinkerOptions{});
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInternal);
  uint64_t attempts_after_first = client.counters().attempts;

  auto second = client.Resolve("Germany", EntityLinkerOptions{});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInternal);
  EXPECT_EQ(client.counters().attempts, attempts_after_first);
  EXPECT_EQ(client.counters().cache_hits, 1u);
  EXPECT_EQ(client.counters().failures, 2u);
}

TEST(ResilientKgClient, BreakerOpensUnderAPermanentFailureStorm) {
  TripleStore kg = MakeKg();
  auto plan = FaultPlan::Parse("seed=1;malformed=1.0");
  ASSERT_TRUE(plan.ok());
  KgClientOptions options;
  options.breaker.failure_threshold = 3;
  options.breaker.metric_prefix.clear();
  ResilientKgClient client(
      std::make_shared<FaultInjectingEndpoint>(
          std::make_shared<LocalEndpoint>(&kg), *plan),
      options);

  // Distinct keys so the negative cache cannot absorb the storm.
  for (EntityId id = 0; id < 6; ++id) {
    EXPECT_FALSE(client.Properties(id).ok());
  }
  EXPECT_GE(client.breaker().times_opened(), 1u);
}

}  // namespace
}  // namespace mesa
