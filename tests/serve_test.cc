// Tests for the mesa_serve daemon stack (docs/serving.md): the wire JSON
// value, the admission controller, and — the core contract — a resident
// daemon answering 8 concurrent clients over two datasets byte-identically
// to serial one-shot runs over the same files, at 1/2/8 pool threads.
// Every request carries a unique trace ID that lands in the metrics
// snapshot's trace ring. A final test drives the real mesa_serve binary as
// a child process over a real socket (skipped when the binary is absent).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/parallel.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "datagen/registry.h"
#include "kg/serialization.h"
#include "query/sql_parser.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/router.h"
#include "serve/server.h"
#include "table/csv.h"

namespace mesa {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// JSON wire value.

TEST(ServeJson, ParsesAndSerializesRoundTrip) {
  auto v = JsonValue::Parse(
      R"({"verb":"explain","n":3,"x":-2.5,"ok":true,"none":null,)"
      R"("cols":["a","b"],"nested":{"k":"v"}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->GetString("verb"), "explain");
  EXPECT_EQ(v->GetNumber("n"), 3.0);
  EXPECT_EQ(v->GetNumber("x"), -2.5);
  EXPECT_TRUE(v->GetBool("ok"));
  EXPECT_TRUE(v->Find("none")->is_null());
  ASSERT_TRUE(v->Find("cols")->is_array());
  EXPECT_EQ(v->Find("cols")->elements().size(), 2u);
  EXPECT_EQ(v->Find("nested")->GetString("k"), "v");

  // Round trip: serialize, reparse, and the fields survive.
  auto again = JsonValue::Parse(v->Serialize());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Serialize(), v->Serialize());
}

TEST(ServeJson, EscapesControlCharactersSoLinesStaySingleLines) {
  JsonValue obj = JsonValue::Object();
  obj.Set("text", JsonValue::Str("line1\nline2\ttab\"quote\\slash\x01"));
  std::string wire = obj.Serialize();
  EXPECT_EQ(wire.find('\n'), std::string::npos)
      << "serialized JSON must never contain a raw newline";
  auto parsed = JsonValue::Parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("text"), "line1\nline2\ttab\"quote\\slash\x01");
}

TEST(ServeJson, UnicodeEscapes) {
  auto v = JsonValue::Parse(R"({"s":"é€😀"})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->GetString("s"), "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  // A lone surrogate is an error, not silent garbage.
  EXPECT_FALSE(JsonValue::Parse(R"({"s":"\ud83d"})").ok());
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{'a':1}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":01}").ok());
  EXPECT_FALSE(JsonValue::Parse("nope").ok());
  // Depth bomb: 100 nested arrays exceeds the 64-deep cap.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(ServeJson, DuplicateKeysKeepTheLastValue) {
  auto v = JsonValue::Parse(R"({"k":1,"k":2})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetNumber("k"), 2.0);
}

// ---------------------------------------------------------------------------
// Admission controller.

TEST(Admission, CapBoundsInFlightAndReleaseFreesSlots) {
  AdmissionController admission(2);
  AdmissionController::Permit a = admission.TryAcquire();
  AdmissionController::Permit b = admission.TryAcquire();
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(admission.in_flight(), 2u);

  AdmissionController::Permit c = admission.TryAcquire();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(admission.shed(), 1u);

  a.Release();
  EXPECT_EQ(admission.in_flight(), 1u);
  AdmissionController::Permit d = admission.TryAcquire();
  EXPECT_TRUE(d.ok());
}

TEST(Admission, ZeroCapShedsEverything) {
  AdmissionController admission(0);
  EXPECT_FALSE(admission.TryAcquire().ok());
  EXPECT_FALSE(admission.TryAcquire().ok());
  EXPECT_EQ(admission.shed(), 2u);
  EXPECT_EQ(admission.in_flight(), 0u);
}

TEST(Admission, MovedFromPermitDoesNotDoubleRelease) {
  AdmissionController admission(1);
  AdmissionController::Permit a = admission.TryAcquire();
  AdmissionController::Permit b = std::move(a);
  a.Release();  // moved-from: must be a no-op.
  EXPECT_EQ(admission.in_flight(), 1u);
  b.Release();
  EXPECT_EQ(admission.in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Resident daemon vs serial golden.

struct World {
  std::string csv_path;
  std::string kg_path;
  std::vector<std::string> extraction_columns;
};

// Generates `kind` and writes it to temp CSV + KG files — the on-disk
// form both the daemon and the serial golden below load, exactly as
// `mesa_cli gen` + `mesa_cli explain` would. Paths embed the PID:
// parallel ctest runs each test of this binary in its own process, and
// their fixtures must not race on shared files.
World WriteWorld(DatasetKind kind, const std::string& name) {
  auto ds = MakeDataset(kind, GenOptions{});
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  World world;
  const std::string tag = name + "." + std::to_string(::getpid());
  world.csv_path = testing::TempDir() + "/serve_" + tag + ".csv";
  world.kg_path = testing::TempDir() + "/serve_" + tag + ".kg";
  EXPECT_TRUE(WriteCsvFile(ds->table, world.csv_path).ok());
  EXPECT_TRUE(WriteKgFile(*ds->kg, world.kg_path).ok());
  world.extraction_columns = ds->extraction_columns;
  return world;
}

// One request the concurrent clients will issue, with its precomputed
// serial answer.
struct MixEntry {
  std::string dataset;
  std::string sql;
  std::vector<std::string> subgroups;
  std::string golden_report;
};

// The serial reference: a fresh one-shot Mesa over the same files,
// formatted exactly as the daemon formats its reply (and as mesa_cli
// prints), run on the current pool.
std::string SerialGolden(const World& world, const std::string& sql,
                         const std::vector<std::string>& subgroups) {
  auto table = ReadCsvFile(world.csv_path);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  auto kg = ReadKgFile(world.kg_path);
  EXPECT_TRUE(kg.ok()) << kg.status().ToString();
  Mesa mesa(std::move(*table), &*kg, world.extraction_columns, MesaOptions{});
  auto query = ParseQuery(sql);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  auto report = mesa.Explain(*query);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  std::string text = FormatReport(*report);
  if (!subgroups.empty()) {
    SubgroupOptions sg;
    sg.threshold = 0.05 * report->base_cmi;
    sg.refinement_attributes = subgroups;
    auto groups =
        mesa.FindSubgroups(*query, report->explanation.attribute_names, sg);
    EXPECT_TRUE(groups.ok()) << groups.status().ToString();
    text += FormatSubgroups(*groups);
  }
  return text;
}

constexpr char kCovidQuery[] =
    "SELECT Country, avg(Deaths_per_100_cases) FROM covid GROUP BY Country";
constexpr char kCovidQuery2[] =
    "SELECT Country, avg(Confirmed_per_100k) FROM covid GROUP BY Country";
constexpr char kFlightsQuery[] =
    "SELECT Airline, avg(Departure_delay) FROM flights GROUP BY Airline";

// Worlds and goldens are expensive (dataset generation + four explains);
// build them once for the whole binary.
class ServeDaemonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    covid_ = new World(WriteWorld(DatasetKind::kCovid, "covid"));
    flights_ = new World(WriteWorld(DatasetKind::kFlights, "flights"));
    mix_ = new std::vector<MixEntry>{
        {"covid", kCovidQuery, {"WHO_Region"}, ""},
        {"covid", kCovidQuery2, {}, ""},
        {"flights", kFlightsQuery, {"Origin_state"}, ""},
        {"flights", kFlightsQuery, {}, ""},
    };
    SetNumThreads(1);  // goldens on the serial pool; results are
                       // thread-count-invariant anyway (parallel_test).
    for (MixEntry& entry : *mix_) {
      const World& world = entry.dataset == "covid" ? *covid_ : *flights_;
      entry.golden_report = SerialGolden(world, entry.sql, entry.subgroups);
      ASSERT_FALSE(entry.golden_report.empty());
    }
  }

  static void TearDownTestSuite() {
    std::remove(covid_->csv_path.c_str());
    std::remove(covid_->kg_path.c_str());
    std::remove(flights_->csv_path.c_str());
    std::remove(flights_->kg_path.c_str());
    delete covid_;
    delete flights_;
    delete mix_;
    covid_ = flights_ = nullptr;
    mix_ = nullptr;
  }

  // A router with both worlds resident, warm.
  static void BuildRouter(Router* router) {
    const std::pair<std::string, const World*> worlds[] = {
        {"covid", covid_}, {"flights", flights_}};
    for (const auto& named : worlds) {
      Router::DatasetSpec spec;
      spec.name = named.first;
      spec.csv_path = named.second->csv_path;
      spec.kg_path = named.second->kg_path;
      spec.extraction_columns = named.second->extraction_columns;
      ASSERT_TRUE(router->AddDataset(spec).ok());
    }
    ASSERT_TRUE(router->WarmStart().ok());
  }

  static World* covid_;
  static World* flights_;
  static std::vector<MixEntry>* mix_;
};

World* ServeDaemonTest::covid_ = nullptr;
World* ServeDaemonTest::flights_ = nullptr;
std::vector<MixEntry>* ServeDaemonTest::mix_ = nullptr;

TEST_F(ServeDaemonTest, ConcurrentClientsMatchSerialGoldenAtAnyThreadCount) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 5;

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetNumThreads(threads);
    metrics::ResetAll();

    RouterOptions router_options;
    router_options.max_inflight = kClients;  // no shedding in this test.
    Router router(router_options);
    BuildRouter(&router);
    Server server(&router);
    ASSERT_TRUE(server.Start().ok());

    std::mutex mu;
    std::set<std::string> trace_ids;
    std::vector<std::string> failures;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto fail = [&](const std::string& what) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back("client " + std::to_string(c) + ": " + what);
        };
        auto client = Client::Connect(server.port());
        if (!client.ok()) {
          fail(client.status().ToString());
          return;
        }
        for (int r = 0; r < kRequestsPerClient; ++r) {
          // Seeded deterministic mix: every client hits both datasets.
          const MixEntry& entry = (*mix_)[(c * 13 + r * 7) % mix_->size()];
          auto reply =
              (*client)->Explain(entry.dataset, entry.sql, entry.subgroups);
          if (!reply.ok()) {
            fail(reply.status().ToString());
            continue;
          }
          if (!reply->ok) {
            fail("explain error: " + reply->error);
            continue;
          }
          if (reply->report != entry.golden_report) {
            fail("reply for " + entry.dataset +
                 " diverged from the serial golden");
          }
          if (reply->trace_id.empty()) fail("empty trace id");
          std::lock_guard<std::mutex> lock(mu);
          trace_ids.insert(reply->trace_id);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    EXPECT_TRUE(failures.empty()) << failures.front() << " (and "
                                  << failures.size() - 1 << " more)";
    // Every reply carried a distinct trace ID.
    EXPECT_EQ(trace_ids.size(),
              static_cast<size_t>(kClients * kRequestsPerClient));

    // The IDs are also in the snapshot's trace ring, with their spans.
    auto probe = Client::Connect(server.port());
    ASSERT_TRUE(probe.ok());
    auto metrics_json = (*probe)->MetricsJson();
    ASSERT_TRUE(metrics_json.ok()) << metrics_json.status().ToString();
    auto snapshot = JsonValue::Parse(*metrics_json);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const JsonValue* traces = snapshot->Find("traces");
    ASSERT_NE(traces, nullptr);
    ASSERT_TRUE(traces->is_array());
    std::set<std::string> snapshot_ids;
    for (const JsonValue& event : traces->elements()) {
      snapshot_ids.insert(event.GetString("id"));
      EXPECT_FALSE(event.GetString("name").empty());
    }
    for (const std::string& id : trace_ids) {
      EXPECT_TRUE(snapshot_ids.count(id) > 0)
          << "trace " << id << " missing from the metrics snapshot";
    }

    server.Shutdown();
  }
  SetNumThreads(1);
}

TEST_F(ServeDaemonTest, StatusReportsResidentDatasets) {
  Router router;
  BuildRouter(&router);
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto status = (*client)->GetStatus();
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_TRUE(status->GetBool("ok"));
  const JsonValue* datasets = status->Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_TRUE(datasets->is_array());
  ASSERT_EQ(datasets->elements().size(), 2u);
  EXPECT_EQ(datasets->elements()[0].GetString("name"), "covid");
  EXPECT_EQ(datasets->elements()[1].GetString("name"), "flights");
  for (const JsonValue& entry : datasets->elements()) {
    EXPECT_GT(entry.GetNumber("rows"), 0.0);
    EXPECT_GT(entry.GetNumber("kg_columns"), 0.0);
    EXPECT_EQ(entry.GetNumber("coverage"), 1.0);
  }
  EXPECT_EQ(status->GetNumber("in_flight"), 0.0);
  EXPECT_GE(status->GetNumber("requests"), 1.0);

  server.Shutdown();
}

TEST_F(ServeDaemonTest, ShutdownVerbStopsTheServer) {
  Router router;
  BuildRouter(&router);
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());

  std::thread waiter([&] { server.Wait(); });
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Shutdown().ok());
  waiter.join();
  EXPECT_FALSE(server.running());
  // Note: no "connecting again fails" assertion here — under parallel
  // ctest another test process can bind the just-released ephemeral
  // port immediately, making a reconnect succeed against a stranger.
  // running() == false is the contract; port reuse is the kernel's.
}

// Sends `line` + '\n' on a raw socket and closes WITHOUT reading the
// reply — the rude-client shape the server must tolerate.
void FireAndForget(uint16_t port, const std::string& line) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string payload = line + "\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  ::close(fd);
}

// Regression: the accepted shutdown must be honored even when the client
// disconnects before the reply is written (the reply write fails, but
// the router already committed to shutting down).
TEST(ServeServer, ShutdownVerbHonoredWhenClientNeverReadsTheReply) {
  Router router;
  Server server(&router);
  ASSERT_TRUE(server.Start().ok());
  std::thread waiter([&] { server.Wait(); });
  FireAndForget(server.port(), "{\"verb\":\"shutdown\"}");
  waiter.join();
  EXPECT_FALSE(server.running());
}

// Regression: Shutdown() must not poison the server — a subsequent
// Start() serves connections again (running() is documented as "between
// a successful Start and Shutdown", with no single-use caveat).
TEST(ServeServer, RestartAfterShutdownServesAgain) {
  Router router;
  Server server(&router);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto status = (*client)->GetStatus();
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    EXPECT_TRUE(status->GetBool("ok"));
    server.Shutdown();
    EXPECT_FALSE(server.running());
  }
}

// Regression: the max_line_bytes bound is exact. A complete line just
// over the cap — whose terminating newline arrives in the same recv
// chunk that crossed the limit, so the partial-buffer check never fires
// — still gets an invalid_argument reply, and the connection survives.
TEST(ServeServer, CompleteLineJustOverTheLimitIsRejectedExactly) {
  ServerOptions options;
  options.max_line_bytes = 64;
  Router router;
  Server server(&router, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // 65 bytes: one over the cap, far under the 4096-byte recv chunk.
  std::string over(65, 'x');
  auto raw = (*client)->CallRaw(over);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto reply = JsonValue::Parse(*raw);
  ASSERT_TRUE(reply.ok()) << "reply not JSON: " << *raw;
  EXPECT_FALSE(reply->GetBool("ok"));
  EXPECT_EQ(reply->GetString("code"), "invalid_argument");

  // At the cap is fine (it is not valid JSON, but it is not oversized).
  std::string at_cap(64, 'x');
  auto at_cap_raw = (*client)->CallRaw(at_cap);
  ASSERT_TRUE(at_cap_raw.ok()) << at_cap_raw.status().ToString();
  auto at_cap_reply = JsonValue::Parse(*at_cap_raw);
  ASSERT_TRUE(at_cap_reply.ok());
  EXPECT_EQ(at_cap_reply->GetString("code"), "invalid_argument");
  EXPECT_NE(at_cap_reply->GetString("error").find("json"), std::string::npos)
      << at_cap_reply->GetString("error");

  // The connection still serves real requests.
  auto status = (*client)->GetStatus();
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_TRUE(status->GetBool("ok"));

  server.Shutdown();
}

// Regression smoke for the reap/shutdown deadlock: short-lived
// connections finish (making them reapable by the accept loop) while a
// shutdown-verb handler races them into RequestShutdown. With the old
// ordering — done published before RequestShutdown, joins under mu_ —
// the accept thread could join a handler that was itself blocked on mu_.
// Restart loops amplify the window; the test simply must not hang.
TEST(ServeServer, ConnectionChurnRacingShutdownNeverHangs) {
  Router router;
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    Server server(&router);
    ASSERT_TRUE(server.Start().ok());
    const uint16_t port = server.port();

    std::atomic<bool> stop{false};
    std::thread churn([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto client = Client::Connect(port);
        if (!client.ok()) break;  // server is tearing down.
        (void)(*client)->GetStatus();
      }
    });

    std::thread waiter([&] { server.Wait(); });
    FireAndForget(port, "{\"verb\":\"shutdown\"}");
    waiter.join();
    stop.store(true, std::memory_order_release);
    churn.join();
    EXPECT_FALSE(server.running());
  }
}

TEST(ServeServer, RefusesNonLoopbackBind) {
  Router router;
  ServerOptions options;
  options.host = "0.0.0.0";
  Server server(&router, options);
  Status started = server.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Mesa reentrancy: the daemon shares ONE Mesa per dataset across all
// connection threads. Regression for the lazy-Preprocess race: two
// explains arriving at a cold instance must both succeed and match the
// serial answers (first-call preprocessing is serialized internally; see
// core/mesa.h).

TEST(MesaReentrancy, InterleavedExplainsOverOneColdInstance) {
  auto ds = MakeDataset(DatasetKind::kCovid, GenOptions{});
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto q1 = ParseQuery(kCovidQuery);
  auto q2 = ParseQuery(kCovidQuery2);
  ASSERT_TRUE(q1.ok() && q2.ok());
  const std::vector<std::string> extract = {"Country", "WHO_Region"};

  // Serial references, each from its own fresh instance.
  std::string serial1, serial2;
  {
    Mesa mesa(ds->table, ds->kg.get(), extract, MesaOptions{});
    auto report = mesa.Explain(*q1);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    serial1 = FormatReport(*report);
  }
  {
    Mesa mesa(ds->table, ds->kg.get(), extract, MesaOptions{});
    auto report = mesa.Explain(*q2);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    serial2 = FormatReport(*report);
  }

  // Now both queries race into one cold shared instance, repeatedly.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    Mesa shared(ds->table, ds->kg.get(), extract, MesaOptions{});
    std::string got1, got2;
    Status status1, status2;
    std::thread t1([&] {
      auto report = shared.Explain(*q1);
      status1 = report.status();
      if (report.ok()) got1 = FormatReport(*report);
    });
    std::thread t2([&] {
      auto report = shared.Explain(*q2);
      status2 = report.status();
      if (report.ok()) got2 = FormatReport(*report);
    });
    t1.join();
    t2.join();
    ASSERT_TRUE(status1.ok()) << status1.ToString();
    ASSERT_TRUE(status2.ok()) << status2.ToString();
    EXPECT_EQ(got1, serial1);
    EXPECT_EQ(got2, serial2);
  }
}

// ---------------------------------------------------------------------------
// The real binary over a real socket.

std::string ServeBinaryPath() {
  for (const char* candidate :
       {"../src/mesa_serve", "./src/mesa_serve", "build/src/mesa_serve"}) {
    std::ifstream probe(candidate);
    if (probe.good()) return candidate;
  }
  return "";
}

TEST_F(ServeDaemonTest, ChildProcessServesOverARealSocket) {
  std::string binary = ServeBinaryPath();
  if (binary.empty()) GTEST_SKIP() << "mesa_serve binary not found";

  std::string command = binary + " --data \"covid=" + covid_->csv_path + ":" +
                        covid_->kg_path + ":Country+WHO_Region\" 2>&1";
  std::FILE* child = popen(command.c_str(), "r");
  ASSERT_NE(child, nullptr);

  // The daemon prints exactly one line once it is serving.
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), child), nullptr);
  unsigned port = 0;
  ASSERT_EQ(std::sscanf(line, "listening on 127.0.0.1:%u", &port), 1)
      << "unexpected startup line: " << line;

  auto client = Client::Connect(static_cast<uint16_t>(port));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const MixEntry& entry = (*mix_)[0];
  auto reply = (*client)->Explain(entry.dataset, entry.sql, entry.subgroups);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply->ok) << reply->error;
  EXPECT_EQ(reply->report, entry.golden_report);

  EXPECT_TRUE((*client)->Shutdown().ok());
  client->reset();  // close our socket before reaping the child.
  EXPECT_EQ(pclose(child), 0);
}

}  // namespace
}  // namespace serve
}  // namespace mesa
