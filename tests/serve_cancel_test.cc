// Deadline / cancellation / drain contract for the serving layer
// (docs/robustness.md "Request deadlines and graceful drain"):
//
//  - Deadlines are strictly abort-or-continue: a request that completes
//    under its deadline is byte-identical to the same request with no
//    deadline, at any thread count.
//  - A request that blows its deadline unwinds in bounded time with
//    deadline_exceeded, releases its admission permit, and leaves the
//    router fully servable — a follow-up query returns the golden reply.
//  - Explicit cancellation surfaces as `cancelled`, never as an error.
//  - Server::Drain tells every in-flight explain to stop, still delivers
//    their replies, and shuts down cleanly; SIGTERM on a real mesa_serve
//    process drains to exit code 0.
//  - Client-side timeouts turn an unresponsive daemon into a
//    DeadlineExceeded status instead of a hang.

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "datagen/registry.h"
#include "kg/serialization.h"
#include "query/sql_parser.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/router.h"
#include "serve/server.h"
#include "table/csv.h"

namespace mesa {
namespace serve {
namespace {

constexpr char kQuery[] =
    "SELECT Country, avg(Deaths_per_100_cases) FROM covid GROUP BY Country";

// Explain request line with an optional deadline, exactly as the wire
// clients emit it.
std::string ExplainLine(uint64_t deadline_ms) {
  JsonValue request = JsonValue::Object();
  request.Set("verb", JsonValue::Str("explain"));
  request.Set("dataset", JsonValue::Str("covid"));
  request.Set("sql", JsonValue::Str(kQuery));
  if (deadline_ms > 0) {
    request.Set("deadline_ms",
                JsonValue::Number(static_cast<double>(deadline_ms)));
  }
  return request.Serialize();
}

// Same fixture shape as serve_chaos_test: covid on disk once per
// process, plus the serial fault-free golden report.
class ServeCancelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto ds = MakeDataset(DatasetKind::kCovid, GenOptions{});
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    const std::string tag = std::to_string(::getpid());
    csv_path_ =
        new std::string(testing::TempDir() + "/serve_cancel." + tag + ".csv");
    kg_path_ =
        new std::string(testing::TempDir() + "/serve_cancel." + tag + ".kg");
    ASSERT_TRUE(WriteCsvFile(ds->table, *csv_path_).ok());
    ASSERT_TRUE(WriteKgFile(*ds->kg, *kg_path_).ok());

    auto table = ReadCsvFile(*csv_path_);
    ASSERT_TRUE(table.ok());
    auto kg = ReadKgFile(*kg_path_);
    ASSERT_TRUE(kg.ok());
    Mesa mesa(std::move(*table), &*kg, {"Country", "WHO_Region"},
              MesaOptions{});
    auto query = ParseQuery(kQuery);
    ASSERT_TRUE(query.ok());
    auto report = mesa.Explain(*query);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    golden_report_ = new std::string(FormatReport(*report));
  }

  static void TearDownTestSuite() {
    std::remove(csv_path_->c_str());
    std::remove(kg_path_->c_str());
    delete csv_path_;
    delete kg_path_;
    delete golden_report_;
    csv_path_ = kg_path_ = golden_report_ = nullptr;
  }

  static void BuildRouter(Router* router, bool warm = true) {
    Router::DatasetSpec spec;
    spec.name = "covid";
    spec.csv_path = *csv_path_;
    spec.kg_path = *kg_path_;
    spec.extraction_columns = {"Country", "WHO_Region"};
    ASSERT_TRUE(router->AddDataset(spec).ok());
    if (warm) ASSERT_TRUE(router->WarmStart().ok());
  }

  static std::string* csv_path_;
  static std::string* kg_path_;
  static std::string* golden_report_;
};

std::string* ServeCancelTest::csv_path_ = nullptr;
std::string* ServeCancelTest::kg_path_ = nullptr;
std::string* ServeCancelTest::golden_report_ = nullptr;

// The determinism half of the contract: a deadline that never fires must
// not perturb a single byte of the report, whatever the thread count.
// (Replies are compared by report field, not whole line — trace IDs are
// unique per request by design.)
TEST_F(ServeCancelTest, GenerousDeadlineIsByteIdenticalAtEveryThreadCount) {
  Router router;
  BuildRouter(&router);

  auto no_deadline = router.Handle(ExplainLine(0));
  auto baseline = JsonValue::Parse(no_deadline.reply_line);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->GetBool("ok")) << baseline->GetString("error");
  ASSERT_EQ(baseline->GetString("report"), *golden_report_);

  const size_t saved = NumThreads();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetNumThreads(threads);
    auto result = router.Handle(ExplainLine(60'000));
    auto reply = JsonValue::Parse(result.reply_line);
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply->GetBool("ok")) << reply->GetString("error");
    EXPECT_EQ(reply->GetString("report"), *golden_report_);
  }
  SetNumThreads(saved);
}

// The abort half: an absurdly tight deadline on a COLD router (so the
// request pays preprocessing and has many checkpoints to cross) unwinds
// with deadline_exceeded in bounded time — and the unwound preprocess
// leaves no half-built state: the next query, with no deadline, on the
// SAME router, is golden.
TEST_F(ServeCancelTest, TightDeadlineUnwindsAndLeavesTheRouterServable) {
  Router router;
  BuildRouter(&router, /*warm=*/false);
  const uint64_t exceeded_before = metrics::CounterValue(
      "serve/deadline_exceeded");

  const auto start = std::chrono::steady_clock::now();
  auto result = router.Handle(ExplainLine(1));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  auto reply = JsonValue::Parse(result.reply_line);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->GetBool("ok"));
  EXPECT_EQ(reply->GetString("code"), "deadline_exceeded");
  // Bounded unwind: checkpoint spacing is far under this, even cold
  // under TSan on a loaded machine.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  EXPECT_GT(metrics::CounterValue("serve/deadline_exceeded"), exceeded_before);

  // Permit released, caches valid, preprocessing restartable.
  EXPECT_EQ(router.inflight_requests(), 0u);
  auto retry = router.Handle(ExplainLine(0));
  auto retry_reply = JsonValue::Parse(retry.reply_line);
  ASSERT_TRUE(retry_reply.ok());
  ASSERT_TRUE(retry_reply->GetBool("ok")) << retry_reply->GetString("error");
  EXPECT_EQ(retry_reply->GetString("report"), *golden_report_);
}

// Explicit cancellation (the drain path's mechanism, driven directly):
// a request whose token is cancelled mid-flight replies `cancelled`,
// and the router serves the golden reply immediately after.
TEST_F(ServeCancelTest, ExplicitCancelRepliesCancelledNotError) {
  Router router;
  BuildRouter(&router);
  router.set_explain_hook([] { CurrentCancelToken()->Cancel(); });
  const uint64_t cancelled_before = metrics::CounterValue("serve/cancelled");

  auto result = router.Handle(ExplainLine(0));
  auto reply = JsonValue::Parse(result.reply_line);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->GetBool("ok"));
  EXPECT_EQ(reply->GetString("code"), "cancelled");
  EXPECT_EQ(metrics::CounterValue("serve/cancelled"), cancelled_before + 1);

  router.set_explain_hook(nullptr);
  auto retry = router.Handle(ExplainLine(0));
  auto retry_reply = JsonValue::Parse(retry.reply_line);
  ASSERT_TRUE(retry_reply.ok());
  ASSERT_TRUE(retry_reply->GetBool("ok")) << retry_reply->GetString("error");
  EXPECT_EQ(retry_reply->GetString("report"), *golden_report_);
}

// Drain against a live server: an explain held in flight is told to
// stop, its (deadline_exceeded) reply still reaches the client, and the
// drain resolves clean — no reply is ever dropped on the floor.
TEST_F(ServeCancelTest, DrainCancelsInflightButStillDeliversTheReply) {
  Router router;
  BuildRouter(&router);
  // Hold the request in flight until drain tightens its token.
  router.set_explain_hook([] {
    auto token = CurrentCancelToken();
    while (token->Check().ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t drain_cancelled_before =
      metrics::CounterValue("serve/drain_cancelled");
  const uint64_t drain_clean_before =
      metrics::CounterValue("serve/drain_clean");

  std::string code;
  std::thread client_thread([&] {
    auto client = Client::Connect(server.port());
    if (!client.ok()) return;
    auto reply = (*client)->Explain("covid", kQuery);
    if (reply.ok()) code = reply->code;
  });
  while (router.inflight_requests() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server.Drain(/*budget_ms=*/50);
  client_thread.join();
  // The held request had no deadline of its own; the drain gave it one.
  EXPECT_EQ(code, "deadline_exceeded");
  EXPECT_EQ(router.inflight_requests(), 0u);
  EXPECT_EQ(metrics::CounterValue("serve/drain_cancelled"),
            drain_cancelled_before + 1);
  EXPECT_EQ(metrics::CounterValue("serve/drain_clean"),
            drain_clean_before + 1);
  EXPECT_GT(metrics::CounterValue("serve/drain_started"), 0u);
}

// The watchdog flags a request that blew far past its budget — once,
// not every scan — and the request is untouched: released, it completes
// with the golden reply.
TEST_F(ServeCancelTest, WatchdogFlagsStuckRequestsExactlyOnce) {
  Router router;
  BuildRouter(&router);
  std::atomic<bool> release{false};
  router.set_explain_hook([&] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const uint64_t stuck_before = metrics::CounterValue("serve/stuck_requests");

  std::string report;
  bool ok = false;
  std::thread request_thread([&] {
    auto result = router.Handle(ExplainLine(10'000));
    auto reply = JsonValue::Parse(result.reply_line);
    if (!reply.ok()) return;
    ok = reply->GetBool("ok");
    report = reply->GetString("report");
  });
  while (router.inflight_requests() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Pretend 40 s elapsed against a 10 s budget with multiplier 3: stuck.
  const uint64_t fake_now = CancelClockNowNs() + 40ULL * 1'000'000'000ULL;
  EXPECT_EQ(router.ScanStuck(fake_now, 3.0), 1u);
  EXPECT_EQ(router.ScanStuck(fake_now, 3.0), 0u);  // flagged once only.
  EXPECT_EQ(metrics::CounterValue("serve/stuck_requests"), stuck_before + 1);

  release.store(true, std::memory_order_release);
  request_thread.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(report, *golden_report_);
}

// Client read timeout: a listener that never accepts (the connection
// parks in the SYN backlog) would hang a timeout-less client forever;
// with read_timeout_ms set, the call returns DeadlineExceeded instead.
TEST_F(ServeCancelTest, ClientReadTimeoutTurnsASilentPeerIntoAStatus) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  ClientOptions options;
  options.connect_timeout_ms = 5000;
  options.read_timeout_ms = 100;
  auto client = Client::Connect(port, "127.0.0.1", options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const auto start = std::chrono::steady_clock::now();
  auto raw = (*client)->CallRaw("{\"verb\":\"status\"}");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
  ::close(listen_fd);
}

// End to end: a real mesa_serve process answers a query, takes SIGTERM,
// drains, and exits 0 — the whole graceful-shutdown story in one child.
TEST_F(ServeCancelTest, SigtermDrainsARealDaemonToExitZero) {
  // The daemon binary lives next to the test tree; probe the layouts the
  // test runs under (ctest in build/tests, direct invocation from build/).
  const char* candidates[] = {"../src/mesa_serve", "src/mesa_serve",
                              "./mesa_serve", "build/src/mesa_serve"};
  std::string binary;
  for (const char* candidate : candidates) {
    if (::access(candidate, X_OK) == 0) {
      binary = candidate;
      break;
    }
  }
  if (binary.empty()) {
    GTEST_SKIP() << "mesa_serve binary not found relative to cwd";
  }

  const std::string tag = std::to_string(::getpid());
  const std::string port_file =
      testing::TempDir() + "/serve_cancel." + tag + ".port";
  const std::string data_spec =
      "covid=" + *csv_path_ + ":" + *kg_path_ + ":Country+WHO_Region";

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::execl(binary.c_str(), "mesa_serve", "--data", data_spec.c_str(),
            "--port-file", port_file.c_str(), "--drain-budget-ms", "2000",
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed.
  }

  // Wait for the (atomically renamed) port file.
  int port = 0;
  for (int i = 0; i < 3000 && port == 0; ++i) {
    std::FILE* f = std::fopen(port_file.c_str(), "r");
    if (f != nullptr) {
      if (std::fscanf(f, "%d", &port) != 1) port = 0;
      std::fclose(f);
    }
    if (port == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(port, 0) << "daemon never published its port";

  auto client = Client::Connect(static_cast<uint16_t>(port));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto reply = (*client)->Explain("covid", kQuery);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->ok) << reply->error;
  EXPECT_EQ(reply->report, *golden_report_);

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "daemon did not exit normally";
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  std::remove(port_file.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace mesa
