// Unit tests for common/cancel.h: token state machine, deadline
// tightening, thread-local scope install/restore, checkpoint throw
// semantics, and propagation into thread-pool workers (the property the
// serving layer's end-to-end deadline enforcement rests on).

#include "common/cancel.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"

namespace mesa {
namespace {

TEST(CancelToken, DefaultTokenIsLiveWithNoDeadline) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.deadline_ns(), 0u);
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelToken, WithTimeoutZeroMeansNoDeadline) {
  auto token = CancelToken::WithTimeoutMs(0);
  EXPECT_EQ(token->deadline_ns(), 0u);
  EXPECT_TRUE(token->Check().ok());
}

TEST(CancelToken, ExplicitCancelFailsCheckWithCancelled) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  Status status = token.Check();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

TEST(CancelToken, ExpiredDeadlineFailsCheckWithDeadlineExceeded) {
  auto token = CancelToken::WithTimeoutMs(1);
  ASSERT_GT(token->deadline_ns(), 0u);
  // Spin past the deadline; 1 ms is far below any scheduler hiccup that
  // could make this flaky in the other direction.
  while (CancelClockNowNs() <= token->deadline_ns()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status status = token->Check();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelToken, ExplicitCancelWinsOverExpiredDeadline) {
  CancelToken token;
  token.set_deadline_ns(1);  // long past.
  token.Cancel();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelToken, TightenAdoptsDeadlineWhenNoneSet) {
  CancelToken token;
  token.TightenDeadlineNs(12345);
  EXPECT_EQ(token.deadline_ns(), 12345u);
}

TEST(CancelToken, TightenOnlyMovesDeadlinesEarlier) {
  CancelToken token;
  token.set_deadline_ns(1000);
  token.TightenDeadlineNs(2000);  // later: must be ignored.
  EXPECT_EQ(token.deadline_ns(), 1000u);
  token.TightenDeadlineNs(500);  // earlier: must win.
  EXPECT_EQ(token.deadline_ns(), 500u);
}

TEST(CancelScope, InstallsAndRestoresTheThreadLocalToken) {
  EXPECT_EQ(CurrentCancelToken(), nullptr);
  auto outer = std::make_shared<CancelToken>();
  {
    CancelScope outer_scope(outer);
    EXPECT_EQ(CurrentCancelToken(), outer);
    auto inner = std::make_shared<CancelToken>();
    {
      CancelScope inner_scope(inner);
      EXPECT_EQ(CurrentCancelToken(), inner);
    }
    EXPECT_EQ(CurrentCancelToken(), outer);
  }
  EXPECT_EQ(CurrentCancelToken(), nullptr);
}

TEST(CancelCheckpoint, NoTokenInstalledIsANoOp) {
  ASSERT_EQ(CurrentCancelToken(), nullptr);
  EXPECT_NO_THROW(CancelCheckpoint());
  EXPECT_TRUE(CancelCheckStatus().ok());
}

TEST(CancelCheckpoint, LiveTokenDoesNotThrow) {
  auto token = std::make_shared<CancelToken>();
  CancelScope scope(token);
  EXPECT_NO_THROW(CancelCheckpoint());
}

TEST(CancelCheckpoint, CancelledTokenThrowsCancelledError) {
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  CancelScope scope(token);
  try {
    CancelCheckpoint();
    FAIL() << "checkpoint did not throw";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(CancelCheckStatus().code(), StatusCode::kCancelled);
}

TEST(CancelPropagation, PoolWorkersSeeTheSubmittersToken) {
  const size_t saved = NumThreads();
  SetNumThreads(4);
  auto token = std::make_shared<CancelToken>();
  CancelScope scope(token);
  constexpr size_t kTasks = 32;
  std::vector<int> saw_token(kTasks, 0);
  ParallelFor(0, kTasks, [&](size_t i) {
    saw_token[i] = CurrentCancelToken() == token ? 1 : 0;
  });
  SetNumThreads(saved);
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(saw_token[i], 1) << "task " << i << " lost the token";
  }
}

TEST(CancelPropagation, CheckpointInWorkerUnwindsOutOfParallelFor) {
  const size_t saved = NumThreads();
  SetNumThreads(4);
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  CancelScope scope(token);
  bool caught = false;
  try {
    ParallelFor(0, 16, [&](size_t) { CancelCheckpoint(); });
  } catch (const CancelledError& e) {
    caught = true;
    EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
  }
  SetNumThreads(saved);
  EXPECT_TRUE(caught);
}

// A worker that trips the checkpoint must not poison the pool: the same
// pool serves a clean run right after.
TEST(CancelPropagation, PoolSurvivesACancelledRun) {
  const size_t saved = NumThreads();
  SetNumThreads(4);
  {
    auto token = std::make_shared<CancelToken>();
    token->Cancel();
    CancelScope scope(token);
    EXPECT_THROW(ParallelFor(0, 16, [&](size_t) { CancelCheckpoint(); }),
                 CancelledError);
  }
  std::atomic<size_t> ran{0};
  ParallelFor(0, 16,
              [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  SetNumThreads(saved);
  EXPECT_EQ(ran.load(), 16u);
}

}  // namespace
}  // namespace mesa
