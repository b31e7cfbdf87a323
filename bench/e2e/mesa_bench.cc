// mesa_bench — the end-to-end benchmark runner (bench/e2e/README.md).
//
// `run` drives the program's two user entry points as child processes:
// one-shot `mesa_cli explain` runs (the cold path) and a spawned
// `mesa_serve` daemon over loopback (the resident path). All load comes
// from this process, with at most min(4, nproc) client threads. Every
// reply is checked byte for byte against a serial oracle: an in-process
// Router over the same files on a one-thread pool.
//
// `trace` replays a workload in-process instead and times the public
// entry point of each layer with bench-side spans, in the order
// Mesa::Explain calls them. It reports the per-layer metrics.
//
// `capacity` runs a workload's pool as a closed loop over the workload's
// connections: its throughput_qps is the capacity that the open-loop
// rate is set against.
//
//   mesa_bench run      --workload W [--seed S] [--seconds T] --cli PATH
//                       --serve PATH --dir DIR [--record FILE]
//   mesa_bench trace    --workload W [--seed S] [--seconds T] --cli PATH
//                       --serve PATH --dir DIR [--record FILE] [--spans FILE]
//   mesa_bench capacity --workload W [--seed S] [--seconds T] --cli PATH
//                       --serve PATH --dir DIR
//   mesa_bench smoke    --cli PATH --serve PATH --dir DIR
//   mesa_bench env [--git-sha SHA]
//
// run/trace print every metric as "name value unit", then, as the last
// stdout line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// --record appends the full run record (with the replies digest and the
// diagnostics that are not benchmark metrics) as one JSON line.
//
// Exit codes: 0 success, 1 usage error or oracle mismatch, 2 runtime error.

#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/candidates.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "datagen/registry.h"
#include "info/info_cache.h"
#include "kg/serialization.h"
#include "loadgen/driver.h"
#include "loadgen/latency.h"
#include "loadgen/schedule.h"
#include "loadgen/workload.h"
#include "query/sql_parser.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/router.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "stats/discretizer.h"
#include "table/csv.h"

#ifndef MESA_BENCH_BUILD_TYPE
#define MESA_BENCH_BUILD_TYPE "unknown"
#endif

namespace mesa {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 20230707;
constexpr int kDaemonStartTimeoutMs = 120000;
constexpr int kDaemonStopTimeoutMs = 30000;
constexpr int kCliTimeoutMs = 120000;
// setup_s is the median of this many daemon start-ups; the last one
// serves the run.
constexpr size_t kSetupRepeats = 5;
constexpr double kWarmupSeconds = 3.0;
constexpr size_t kTraceRequestCap = 500;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end());
  return loadgen::PercentileNearestRank(v, pct);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Same minimal --flag parser as mesa_cli / mesa_serve.
class Flags {
 public:
  Flags(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected argument: " + arg;
        return;
      }
      std::string name = arg.substr(2);
      size_t eq = name.find('=');
      if (eq != std::string::npos) {
        values_[name.substr(0, eq)] = name.substr(eq + 1);
        continue;
      }
      if (i + 1 >= argc) {
        error_ = "flag --" + name + " needs a value";
        return;
      }
      values_[name] = argv[++i];
    }
  }

  const std::string& error() const { return error_; }
  std::string Get(const std::string& name,
                  const std::string& dflt = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int Usage() {
  std::fprintf(stderr, R"(usage:
  mesa_bench run      --workload NAME [--seed S] [--seconds T] --cli PATH
                      --serve PATH --dir DIR [--record FILE]
  mesa_bench trace    --workload NAME [--seed S] [--seconds T] --cli PATH
                      --serve PATH --dir DIR [--record FILE] [--spans FILE]
  mesa_bench capacity --workload NAME [--seed S] [--seconds T] --cli PATH
                      --serve PATH --dir DIR
  mesa_bench smoke    --cli PATH --serve PATH --dir DIR
  mesa_bench env [--git-sha SHA]
workloads: cold_flights warm_flights closed_covid open_mixed
)");
  return 1;
}

// ---------------------------------------------------------------------
// Workloads (README.md explains why each exists).

enum class Discipline { kCold, kClosed, kOpen };

struct InputSpec {
  DatasetKind kind = DatasetKind::kCovid;
  std::string name;
  size_t rows = 0;        ///< 0 = the generator's default size.
  bool snapshot = false;  ///< the program reads .msnap, not CSV + .kg.
  std::vector<std::string> subgroup_attributes;
  /// Generated copies, each a dataset of its own named `name` + k with
  /// data seed MixSeed(seed, k). Most of the run-to-run spread between
  /// seeds comes from the data, so a run averages over several copies.
  size_t copies = 1;
};

struct Workload {
  std::string name;
  Discipline discipline = Discipline::kClosed;
  std::vector<InputSpec> inputs;
  size_t clients = 1;  ///< closed-loop clients / open-loop connections.
  double qps = 0.0;    ///< open-loop arrival rate.
};

std::vector<Workload> Workloads(bool smoke, size_t threads) {
  const size_t flights_rows = smoke ? 3000 : 50000;
  // Two SO copies of half the generator's 47,623 rows: the same rows
  // (and run time) as one full copy, averaged over two datasets.
  const size_t so_rows = smoke ? 3000 : 24000;
  const InputSpec flights{.kind = DatasetKind::kFlights,
                          .name = "flights",
                          .rows = flights_rows,
                          .subgroup_attributes = {"Origin_state"}};
  InputSpec cold_flights = flights;
  cold_flights.copies = smoke ? 3 : 6;
  InputSpec warm_flights = flights;
  warm_flights.snapshot = true;
  warm_flights.copies = smoke ? 1 : 2;
  const InputSpec covid{.kind = DatasetKind::kCovid,
                        .name = "covid",
                        .subgroup_attributes = {"WHO_Region"},
                        .copies = smoke ? 2u : 8u};
  return {
      {.name = "cold_flights",
       .discipline = Discipline::kCold,
       .inputs = {cold_flights}},
      {.name = "warm_flights",
       .discipline = Discipline::kClosed,
       .inputs = {warm_flights}},
      {.name = "closed_covid",
       .discipline = Discipline::kClosed,
       .inputs = {covid},
       .clients = threads},
      {.name = "open_mixed",
       .discipline = Discipline::kOpen,
       .inputs = {covid,
                  {.kind = DatasetKind::kStackOverflow,
                   .name = "so",
                   .rows = so_rows,
                   .subgroup_attributes = {"Gender"},
                   .copies = smoke ? 1u : 2u}},
       .clients = threads,
       // 21-29% of the pool's closed-loop capacity over the same connections
       // (`mesa_bench capacity`: 274-373 qps). At 40% the queue amplified
       // host speed swings past any allowed bound (README.md, "Workloads").
       .qps = 80.0},
  };
}

// ---------------------------------------------------------------------
// Inputs, query pool, oracle.

/// One generated dataset copy on disk, as the program reads it.
struct Input {
  InputSpec spec;
  std::string name;  ///< dataset name: spec.name + copy index.
  std::string csv_path;
  std::string kg_path;
  std::string snapshot_path;
  std::vector<std::string> extraction_columns;
  loadgen::WorkloadDataset draw;  ///< what the query generator draws from.
};

Result<Input> WriteInput(const InputSpec& spec, size_t copy, uint64_t seed,
                         const std::string& dir) {
  GenOptions gen;
  gen.rows = spec.rows;
  gen.seed = MixSeed(seed, copy);
  MESA_ASSIGN_OR_RETURN(GeneratedDataset ds, MakeDataset(spec.kind, gen));
  Input in;
  in.spec = spec;
  in.name = spec.name + std::to_string(copy);
  in.extraction_columns = ds.extraction_columns;
  const std::string prefix = dir + "/" + in.name;
  if (spec.snapshot) {
    in.snapshot_path = prefix + ".msnap";
    snapshot::SnapshotWriter writer;
    writer.SetTable(&ds.table);
    writer.SetKg(ds.kg.get());
    writer.SetExtractionColumns(ds.extraction_columns);
    MESA_RETURN_IF_ERROR(writer.WriteFile(in.snapshot_path));
  } else {
    in.csv_path = prefix + ".csv";
    in.kg_path = prefix + ".kg";
    MESA_RETURN_IF_ERROR(WriteCsvFile(ds.table, in.csv_path));
    MESA_RETURN_IF_ERROR(WriteKgFile(*ds.kg, in.kg_path));
  }
  in.draw = loadgen::MakeWorkloadDataset(in.name, ds.table,
                                         ds.extraction_columns,
                                         spec.subgroup_attributes);
  return in;
}

// The cold path asks Flights Q1 (the ROADMAP baseline query) with a
// subgroup search, once per copy. The resident paths ask every distinct
// query shape of every copy (flights has 36 shapes, covid 44, SO 52),
// once, in a seeded order: drawing far past the shape space and keeping
// the distinct draws means runs differ in data and order, not in which
// queries they ask.
Result<std::vector<loadgen::WorkloadQuery>> MakePool(
    const Workload& workload, const std::vector<Input>& inputs,
    uint64_t seed) {
  std::vector<loadgen::WorkloadQuery> pool;
  if (workload.discipline == Discipline::kCold) {
    for (const Input& in : inputs) {
      QuerySpec q1 = CanonicalQueries(DatasetKind::kFlights)[0].query;
      q1.table_name = in.name;
      loadgen::WorkloadQuery query;
      query.dataset = in.name;
      query.sql = q1.ToSql();
      query.subgroups = in.spec.subgroup_attributes;
      pool.push_back(std::move(query));
    }
    return pool;
  }
  constexpr size_t kDraws = 256;
  for (size_t d = 0; d < inputs.size(); ++d) {
    loadgen::WorkloadOptions options;
    options.seed = MixSeed(seed, d);
    options.distinct_queries = kDraws;
    MESA_ASSIGN_OR_RETURN(std::vector<loadgen::WorkloadQuery> drawn,
                          loadgen::GenerateWorkload({inputs[d].draw}, options));
    std::set<std::string> seen;
    for (loadgen::WorkloadQuery& q : drawn) {
      if (seen.insert(q.RequestLine()).second) pool.push_back(std::move(q));
    }
  }
  return pool;
}

serve::Router::DatasetSpec RouterSpec(const Input& in) {
  serve::Router::DatasetSpec spec;
  spec.name = in.name;
  if (in.spec.snapshot) {
    spec.snapshot_path = in.snapshot_path;
  } else {
    spec.csv_path = in.csv_path;
    spec.kg_path = in.kg_path;
    spec.extraction_columns = in.extraction_columns;
  }
  return spec;
}

// mesa_serve --data value naming the same files.
std::string DaemonDataSpec(const std::vector<Input>& inputs) {
  std::string out;
  for (const Input& in : inputs) {
    if (!out.empty()) out += ';';
    out += in.name + "=";
    if (in.spec.snapshot) {
      out += in.snapshot_path;
      continue;
    }
    out += in.csv_path + ":" + in.kg_path + ":";
    for (size_t i = 0; i < in.extraction_columns.size(); ++i) {
      out += (i > 0 ? "+" : "") + in.extraction_columns[i];
    }
  }
  return out;
}

Status BuildRouter(serve::Router* router, const std::vector<Input>& inputs) {
  for (const Input& in : inputs) {
    MESA_RETURN_IF_ERROR(router->AddDataset(RouterSpec(in)));
  }
  return router->WarmStart();
}

/// The reply fields every check compares.
struct Reply {
  bool ok = false;
  std::string code;
  std::string report;
  std::string error;

  bool operator==(const Reply& o) const {
    return ok == o.ok && code == o.code && report == o.report &&
           error == o.error;
  }
};

Result<Reply> ParseReply(const std::string& line) {
  MESA_ASSIGN_OR_RETURN(serve::JsonValue v, serve::JsonValue::Parse(line));
  if (!v.is_object()) return Status::Internal("reply is not a JSON object");
  return Reply{v.GetBool("ok"), v.GetString("code"), v.GetString("report"),
               v.GetString("error")};
}

// Restores the global pool size on scope exit.
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

/// Everything one run of one workload needs before any timing starts.
struct Fixture {
  std::vector<Input> inputs;
  std::vector<loadgen::WorkloadQuery> pool;
  std::vector<std::string> lines;  ///< request line per pool entry.
  std::vector<Reply> oracle;       ///< expected reply per pool entry.
  /// Order-independent hash over the (request, report) pairs. Every reply
  /// is checked equal to the oracle, so this names the replies.
  uint64_t digest = 0;
};

/// The serial oracle: for each input in turn, a fresh Router holding
/// only that input, on a one-thread pool, answers the pool entries that
/// ask it, one at a time. One input at a time bounds the bench's memory.
Status ComputeOracle(Fixture* fx) {
  PoolSizeGuard serial(1);
  fx->oracle.assign(fx->lines.size(), Reply{});
  for (const Input& in : fx->inputs) {
    serve::RouterOptions options;
    options.max_inflight = 1;
    serve::Router router(options);
    MESA_RETURN_IF_ERROR(BuildRouter(&router, {in}));
    for (size_t i = 0; i < fx->lines.size(); ++i) {
      if (fx->pool[i].dataset != in.name) continue;
      MESA_ASSIGN_OR_RETURN(fx->oracle[i],
                            ParseReply(router.Handle(fx->lines[i]).reply_line));
    }
  }
  return Status::OK();
}

Result<Fixture> MakeFixture(const Workload& workload, uint64_t seed,
                            const std::string& dir) {
  Fixture fx;
  for (const InputSpec& spec : workload.inputs) {
    for (size_t k = 0; k < spec.copies; ++k) {
      MESA_ASSIGN_OR_RETURN(Input in, WriteInput(spec, k, seed, dir));
      fx.inputs.push_back(std::move(in));
    }
  }
  MESA_ASSIGN_OR_RETURN(fx.pool, MakePool(workload, fx.inputs, seed));
  for (const loadgen::WorkloadQuery& q : fx.pool) {
    fx.lines.push_back(q.RequestLine());
  }
  MESA_RETURN_IF_ERROR(ComputeOracle(&fx));
  std::vector<std::string> pairs;
  for (size_t i = 0; i < fx.lines.size(); ++i) {
    pairs.push_back(fx.lines[i] + '\n' + fx.oracle[i].report);
  }
  std::sort(pairs.begin(), pairs.end());
  fx.digest = 0xcbf29ce484222325ULL;
  for (const std::string& p : pairs) {
    fx.digest = (fx.digest ^ StableHash64(p)) * 0x100000001b3ULL;
  }
  return fx;
}

// ---------------------------------------------------------------------
// Child processes.

/// A child process with its stdout on a pipe. The destructor kills and
/// reaps a child that is still running, so no exit path of the bench
/// leaves one behind; PR_SET_PDEATHSIG covers the bench being killed.
/// Spawn only from the main thread: the death signal follows the thread
/// that forked.
class Child {
 public:
  static Result<std::unique_ptr<Child>> Spawn(
      const std::vector<std::string>& argv) {
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      return Status::IOError("pipe2 failed");
    }
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::IOError("fork failed");
    }
    if (pid == 0) {
      // Async-signal-safe calls only: the bench has threads.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    return std::unique_ptr<Child>(new Child(pid, fds[0], pidfd));
  }

  ~Child() {
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::close(out_fd_);
    if (pidfd_ >= 0) ::close(pidfd_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Next stdout line, without its newline.
  Result<std::string> ReadLine(int timeout_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (eof_) return Status::IOError("child closed stdout: " + buffer_);
      MESA_RETURN_IF_ERROR(ReadSome(deadline));
    }
  }

  /// All stdout until the child closes it.
  Result<std::string> ReadToEnd(int timeout_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!eof_) MESA_RETURN_IF_ERROR(ReadSome(deadline));
    return std::move(buffer_);
  }

  /// Waits for the exit (killing the child after the timeout) and keeps
  /// its exit code and peak resident set. Linux folds the resident set
  /// the child had before exec — a copy of the bench's — into that peak,
  /// so it reads true only while the bench is the smaller of the two.
  Status Wait(int timeout_ms) {
    if (reaped_) return Status::OK();
    bool exited = true;
    if (pidfd_ >= 0) {
      pollfd p{pidfd_, POLLIN, 0};
      exited = ::poll(&p, 1, timeout_ms) > 0;
    }
    if (!exited) ::kill(pid_, SIGKILL);
    int status = 0;
    rusage usage{};
    if (::wait4(pid_, &status, 0, &usage) != pid_) {
      return Status::IOError("wait4 failed");
    }
    reaped_ = true;
    max_rss_kb_ = usage.ru_maxrss;
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (!exited) return Status::DeadlineExceeded("child did not exit in time");
    return Status::OK();
  }

  pid_t pid() const { return pid_; }
  int exit_code() const { return exit_code_; }
  long max_rss_kb() const { return max_rss_kb_; }

 private:
  Child(pid_t pid, int out_fd, int pidfd)
      : pid_(pid), out_fd_(out_fd), pidfd_(pidfd) {}

  Status ReadSome(Clock::time_point deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return Status::DeadlineExceeded("child stdout timed out");
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left)) <= 0) {
      return Status::DeadlineExceeded("child stdout timed out");
    }
    char chunk[65536];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0) return Status::IOError("read from child failed");
    if (n == 0) eof_ = true;
    buffer_.append(chunk, static_cast<size_t>(n));
    return Status::OK();
  }

  pid_t pid_;
  int out_fd_;
  int pidfd_;
  std::string buffer_;
  bool eof_ = false;
  bool reaped_ = false;
  int exit_code_ = -1;
  long max_rss_kb_ = 0;
};

struct Paths {
  std::string cli;
  std::string serve;
};

struct Daemon {
  std::unique_ptr<Child> child;
  uint16_t port = 0;
  double setup_s = 0.0;  ///< spawn to the `listening` line.
};

Result<Daemon> StartDaemon(const Paths& paths,
                           const std::vector<Input>& inputs, size_t threads) {
  const auto t0 = Clock::now();
  Daemon d;
  MESA_ASSIGN_OR_RETURN(d.child,
                        Child::Spawn({paths.serve, "--data",
                                      DaemonDataSpec(inputs), "--threads",
                                      std::to_string(threads)}));
  MESA_ASSIGN_OR_RETURN(std::string line,
                        d.child->ReadLine(kDaemonStartTimeoutMs));
  d.setup_s = MsSince(t0) / 1000.0;
  const std::string prefix = "listening on 127.0.0.1:";
  int64_t port = 0;
  if (line.rfind(prefix, 0) != 0 ||
      !ParseInt64(line.substr(prefix.size()), &port) || port <= 0 ||
      port > 65535) {
    return Status::Internal("unexpected mesa_serve greeting: " + line);
  }
  d.port = static_cast<uint16_t>(port);
  return d;
}

/// A "VmHWM"/"VmRSS"-style field of /proc/PID/status in MB ("self" for
/// pid 0), or 0 when the field is missing.
double ProcStatusMb(pid_t pid, const std::string& field) {
  const std::string path =
      "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
      "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::string(line).rfind(field + ":", 0) == 0) {
      kb = std::strtod(line + field.size() + 1, nullptr);  // "  123 kB"
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Shuts the daemon down through its protocol and returns its peak
/// resident set in MB, read from the live process (its exec'd image
/// only, unlike the rusage peak).
Result<double> StopDaemon(Daemon* d) {
  const double peak_mb = ProcStatusMb(d->child->pid(), "VmHWM");
  MESA_ASSIGN_OR_RETURN(std::unique_ptr<serve::Client> client,
                        serve::Client::Connect(d->port));
  MESA_RETURN_IF_ERROR(client->Shutdown());
  MESA_RETURN_IF_ERROR(d->child->Wait(kDaemonStopTimeoutMs));
  if (d->child->exit_code() != 0) {
    return Status::Internal("mesa_serve exited with code " +
                            std::to_string(d->child->exit_code()));
  }
  return peak_mb;
}

// ---------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  size_t attempted = 0;
  size_t failed = 0;      ///< error replies, sheds, transport failures.
  size_t mismatches = 0;  ///< replies that differ from the oracle.
  std::vector<Metric> metrics;
  std::vector<Metric> extras;  ///< diagnostics, not benchmark metrics.
  uint64_t digest = 0;

  bool correct() const { return mismatches == 0 && attempted > 0; }
};

/// Tallies one observed reply against the oracle; true for a successful
/// reply equal to it. A transport failure or a shed is a failure, not a
/// mismatch: the oracle never sheds.
bool Check(const Result<Reply>& observed, const Reply& expected,
           RunReport* report) {
  ++report->attempted;
  if (!observed.ok() ||
      (!observed->ok && observed->code == "resource_exhausted")) {
    ++report->failed;
    return false;
  }
  if (!(*observed == expected)) {
    ++report->mismatches;
    if (report->mismatches <= 3) {
      std::fprintf(stderr, "ORACLE MISMATCH: ok=%d code='%s' vs ok=%d '%s'\n",
                   observed->ok ? 1 : 0, observed->code.c_str(),
                   expected.ok ? 1 : 0, expected.code.c_str());
    }
    return false;
  }
  if (!observed->ok) ++report->failed;
  return observed->ok;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += serve::JsonQuote(metrics[i].name) + ":{\"value\":" +
           JsonNumber(metrics[i].value) +
           ",\"unit\":" + serve::JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ResultLine(const RunReport& r) {
  return std::string("{\"correct\":") + (r.correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"metrics\":" + MetricsJson(r.metrics) + "}";
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

void PrintReport(const std::string& workload, const RunReport& r) {
  for (const Metric& m : r.metrics) {
    std::printf("%-14s %-28s %16.6f %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const Metric& m : r.extras) {
    std::printf("%-14s %-28s %16.6f %s (diagnostic)\n", workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-14s replies_digest %s, %zu attempted, %zu failed, "
              "%zu oracle mismatches\n",
              workload.c_str(), Hex(r.digest).c_str(), r.attempted, r.failed,
              r.mismatches);
}

// ---------------------------------------------------------------------
// End-to-end run.

struct RunOptions {
  uint64_t seed = kDefaultSeed;
  double seconds = 18.0;  ///< run_seconds in BENCHMARK.json.
  size_t threads = 1;  ///< program pool size and client cap.
  Paths paths;
};

std::string JoinComma(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : ",") + p;
  return out;
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One successful request of a timed window.
struct Completion {
  double start_s = 0.0;  ///< window start to send (open loop: to due time).
  double latency_ms = 0.0;
};

/// A latency percentile as the median over five equal time slices of the
/// window (requests placed by start; whatever starts after the nominal
/// end, finishing its pass, joins the last slice). A burst of host
/// interference that covers fewer than half the slices moves none of it.
double SliceMedian(const std::vector<Completion>& done, double seconds,
                   double pct) {
  constexpr size_t kSlices = 5;
  std::vector<std::vector<double>> slices(kSlices);
  for (const Completion& c : done) {
    const size_t k = std::min(
        kSlices - 1, static_cast<size_t>(c.start_s / seconds * kSlices));
    slices[k].push_back(c.latency_ms);
  }
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : slices) {
    if (!slice.empty()) per_slice.push_back(Percentile(slice, pct));
  }
  return Median(per_slice);
}

/// Sequential one-shot `mesa_cli explain` runs, spawn to exit, in whole
/// passes over the pool (one query per dataset copy; at least one pass)
/// for `seconds`.
Status RunCold(const Fixture& fx, const RunOptions& opt, double seconds,
               RunReport* report, std::vector<Completion>* done,
               std::vector<double>* rss_mb, double* window_s) {
  const size_t pass = fx.pool.size();
  const auto start = Clock::now();
  const auto deadline = After(seconds);
  for (size_t run = 0; run < pass || Clock::now() < deadline || run % pass != 0;
       ++run) {
    const loadgen::WorkloadQuery& query = fx.pool[run % pass];
    const Input& in = fx.inputs[run % pass];
    const std::vector<std::string> argv = {
        opt.paths.cli, "explain",   "--data",
        in.csv_path,   "--kg",      in.kg_path,
        "--extract",   JoinComma(in.extraction_columns),
        "--query",     query.sql,   "--subgroups",
        JoinComma(query.subgroups)};
    const auto t0 = Clock::now();
    MESA_ASSIGN_OR_RETURN(std::unique_ptr<Child> child, Child::Spawn(argv));
    Result<std::string> out = child->ReadToEnd(kCliTimeoutMs);
    MESA_RETURN_IF_ERROR(child->Wait(kCliTimeoutMs));
    const double ms = MsSince(t0);
    const Result<Reply> observed =
        out.ok() && child->exit_code() == 0
            ? Result<Reply>(Reply{true, "", *out, ""})
            : Result<Reply>(Status::Internal("mesa_cli failed"));
    if (Check(observed, fx.oracle[run % pass], report)) {
      done->push_back({SecondsBetween(start, t0), ms});
    }
    rss_mb->push_back(static_cast<double>(child->max_rss_kb()) / 1024.0);
  }
  *window_s = MsSince(start) / 1000.0;
  return Status::OK();
}

/// Pool entry of request `r` of closed-loop client `c`: each client walks
/// the pool round robin from its own offset, so every entry gets an equal
/// share of the window whatever the seed.
size_t ClosedLoopQuery(size_t c, size_t r, size_t clients, size_t pool_size) {
  return (c * pool_size / clients + r) % pool_size;
}

/// The open loop's requests: when each is due and which pool entry it
/// asks.
struct OpenSchedule {
  std::vector<uint64_t> due_ns;  ///< from the start of the window.
  std::vector<size_t> query;
};

/// qps × seconds requests on loadgen's seeded Poisson arrivals, scaled so
/// that the last one is due at the end of the window: that fixes the
/// offered rate for every seed, where an unscaled schedule of that many
/// requests ends 3–4% early or late. They ask the pool in whole passes,
/// each in a seeded order, so every entry weighs the same whatever the
/// seed; drawing entries independently, as loadgen's driver does, moved
/// the tail by about 8% between seeds.
OpenSchedule MakeOpenSchedule(double qps, double seconds, uint64_t seed,
                              size_t pool_size) {
  constexpr uint64_t kOrderStream = 0x6f70656e6f726472ULL;  // "openordr"
  const size_t n =
      std::max<size_t>(1, static_cast<size_t>(std::llround(qps * seconds)));
  const double last_due_s =
      static_cast<double>(loadgen::OpenLoopArrivalsNs({seed, qps, n}).back()) /
      1e9;
  OpenSchedule s;
  s.due_ns = loadgen::OpenLoopArrivalsNs({seed, qps * last_due_s / seconds, n});
  Rng rng(MixSeed(seed, kOrderStream));
  while (s.query.size() < n) {
    const std::vector<size_t> pass = rng.Permutation(pool_size);
    s.query.insert(s.query.end(), pass.begin(), pass.end());
  }
  s.query.resize(n);
  return s;
}

/// Load over `clients` connections, one thread each.
///
/// Closed loop (`open` null): a client sends its next request when the
/// previous reply arrives, walking the pool round robin from its own
/// offset in whole passes (at least one) for `seconds`, so every pool
/// entry weighs the same.
///
/// Open loop: a free connection takes the next request of the schedule,
/// waits until it is due and sends it. Latency runs from the due time,
/// so time spent waiting for a free connection counts (loadgen's driver
/// starts its clock at pickup instead); `late_ms` gets pickup − due.
///
/// Replies are kept raw and checked after the window, off the timed path.
Status RunLoad(uint16_t port, size_t clients, const Fixture& fx,
               double seconds, const OpenSchedule* open, RunReport* report,
               std::vector<Completion>* done, std::vector<double>* late_ms,
               double* window_s) {
  struct Sample {
    size_t query = 0;
    double start_s = 0.0;  ///< window start to send (open loop: to due).
    double ms = 0.0;
    double late_ms = 0.0;
    Result<std::string> reply = std::string();
  };
  std::vector<std::unique_ptr<loadgen::SocketTarget>> targets;
  for (size_t c = 0; c < clients; ++c) {
    MESA_ASSIGN_OR_RETURN(std::unique_ptr<loadgen::SocketTarget> target,
                          loadgen::SocketTarget::Connect(port));
    targets.push_back(std::move(target));
  }
  std::vector<std::vector<Sample>> samples(clients);
  std::atomic<size_t> next{0};
  const auto start = Clock::now();
  const auto deadline = After(seconds);
  // Sends one request timed from `t0`; false once the connection failed.
  auto send = [&](size_t c, size_t query, Clock::time_point t0) {
    Sample s;
    s.query = query;
    s.start_s = SecondsBetween(start, t0);
    s.late_ms = MsSince(t0);
    s.reply = targets[c]->Call(fx.lines[query]);
    s.ms = MsSince(t0);
    const bool transport_ok = s.reply.ok();
    samples[c].push_back(std::move(s));
    return transport_ok;
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      if (open != nullptr) {
        for (size_t i = next++; i < open->query.size(); i = next++) {
          const auto due = start + std::chrono::nanoseconds(open->due_ns[i]);
          std::this_thread::sleep_until(due);
          if (!send(c, open->query[i], due)) break;
        }
        return;
      }
      const size_t pass = fx.lines.size();
      for (size_t r = 0; r < pass || Clock::now() < deadline || r % pass != 0;
           ++r) {
        if (!send(c, ClosedLoopQuery(c, r, clients, pass), Clock::now())) {
          break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *window_s = MsSince(start) / 1000.0;
  for (const std::vector<Sample>& per_client : samples) {
    for (const Sample& s : per_client) {
      Result<Reply> observed =
          s.reply.ok() ? ParseReply(*s.reply) : Result<Reply>(s.reply.status());
      if (Check(observed, fx.oracle[s.query], report)) {
        done->push_back({s.start_s, s.ms});
      }
      if (open != nullptr) late_ms->push_back(s.late_ms);
    }
  }
  return Status::OK();
}

/// Daemon-side view over the timed window, from the metrics verb.
struct DaemonCounters {
  double requests = 0.0;
  double shed = 0.0;
  double errors = 0.0;
  double request_p99_ms = 0.0;
};

Result<DaemonCounters> ReadDaemonCounters(uint16_t port) {
  MESA_ASSIGN_OR_RETURN(std::unique_ptr<serve::Client> client,
                        serve::Client::Connect(port));
  MESA_ASSIGN_OR_RETURN(std::string json, client->MetricsJson());
  MESA_ASSIGN_OR_RETURN(serve::JsonValue snap, serve::JsonValue::Parse(json));
  DaemonCounters c;
  if (const serve::JsonValue* counters = snap.Find("counters")) {
    c.requests = counters->GetNumber("serve/requests");
    c.shed = counters->GetNumber("serve/admission/shed");
    c.errors = counters->GetNumber("serve/errors");
  }
  if (const serve::JsonValue* dists = snap.Find("distributions")) {
    if (const serve::JsonValue* d = dists->Find("serve/request_ns")) {
      c.request_p99_ms = d->GetNumber("p99") / 1e6;
    }
  }
  return c;
}

Result<RunReport> RunE2e(const Workload& w, const RunOptions& opt,
                         const std::string& dir) {
  const auto fixture_start = Clock::now();
  MESA_ASSIGN_OR_RETURN(Fixture fx, MakeFixture(w, opt.seed, dir));
  const double fixture_s = MsSince(fixture_start) / 1000.0;
  RunReport report;
  report.digest = fx.digest;
  // Hand the oracle's memory back before any child is forked: a child's
  // rusage peak starts from the bench's resident set (see Child::Wait).
  ::malloc_trim(0);
  const double bench_rss_mb = ProcStatusMb(0, "VmRSS");

  // The cold path's daemon holds one copy: its start-up is the load and
  // preprocessing that each mesa_cli run does before answering.
  const bool cold = w.discipline == Discipline::kCold;
  const std::vector<Input> served =
      cold ? std::vector<Input>{fx.inputs[0]} : fx.inputs;
  std::vector<double> setups;
  Daemon daemon;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    if (k > 0) MESA_RETURN_IF_ERROR(StopDaemon(&daemon).status());
    MESA_ASSIGN_OR_RETURN(daemon, StartDaemon(opt.paths, served, opt.threads));
    setups.push_back(daemon.setup_s);
  }

  // Untimed warm-up load before a resident window, checked like the
  // rest: this host runs slow for the first seconds of load after an
  // idle spell, and the caches fill on the first pass over the pool. The
  // cold path needs none: the start-ups above just loaded the same kind
  // of input and left nothing warm that a fresh mesa_cli could use.
  const double warmup_s = std::min(kWarmupSeconds, opt.seconds);
  const auto warmup_start = Clock::now();
  RunReport warmup;
  std::vector<Completion> done;
  std::vector<double> rss_mb;
  std::vector<double> late_ms;
  double window_s = 0.0;
  double warmed_s = 0.0;
  if (cold) {
    MESA_RETURN_IF_ERROR(StopDaemon(&daemon).status());
    MESA_RETURN_IF_ERROR(
        RunCold(fx, opt, opt.seconds, &report, &done, &rss_mb, &window_s));
  } else {
    std::vector<Completion> unused;
    std::vector<double> unused_late;
    double unused_s = 0.0;
    MESA_RETURN_IF_ERROR(RunLoad(daemon.port, w.clients, fx, warmup_s,
                                 nullptr, &warmup, &unused, &unused_late,
                                 &unused_s));
    warmed_s = MsSince(warmup_start) / 1000.0;
    const bool open = w.discipline == Discipline::kOpen;
    const OpenSchedule schedule =
        open ? MakeOpenSchedule(w.qps, opt.seconds, opt.seed, fx.lines.size())
             : OpenSchedule{};
    MESA_ASSIGN_OR_RETURN(DaemonCounters before,
                          ReadDaemonCounters(daemon.port));
    MESA_RETURN_IF_ERROR(RunLoad(daemon.port, w.clients, fx, opt.seconds,
                                 open ? &schedule : nullptr, &report, &done,
                                 &late_ms, &window_s));
    MESA_ASSIGN_OR_RETURN(DaemonCounters after,
                          ReadDaemonCounters(daemon.port));
    MESA_ASSIGN_OR_RETURN(double rss, StopDaemon(&daemon));
    rss_mb.push_back(rss);
    report.extras = {
        {"daemon.requests", after.requests - before.requests, "count"},
        {"daemon.shed", after.shed - before.shed, "count"},
        {"daemon.errors", after.errors - before.errors, "count"},
        {"daemon.request_p99_ms", after.request_p99_ms, "ms"},
    };
    if (open) {
      report.extras.push_back(
          {"loadgen.late_p99_ms", Percentile(late_ms, 99.0), "ms"});
    }
  }
  report.mismatches += warmup.mismatches;
  report.failed += warmup.failed;

  report.metrics = {
      {"setup_s", Median(setups), "s"},
      {"latency_p50_ms", SliceMedian(done, opt.seconds, 50.0), "ms"},
      {"latency_p90_ms", SliceMedian(done, opt.seconds, 90.0), "ms"},
      {"throughput_qps", static_cast<double>(done.size()) / window_s, "1/s"},
      {"peak_rss_mb", Median(rss_mb), "MB"},
  };
  std::vector<double> latencies_ms;
  for (const Completion& c : done) latencies_ms.push_back(c.latency_ms);
  report.extras.insert(
      report.extras.begin(),
      {{"samples", static_cast<double>(done.size()), "count"},
       {"latency_p99_ms", Percentile(latencies_ms, 99.0), "ms"},
       {"error_frac",
        report.attempted > 0 ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 0.0,
        "ratio"},
       {"bench_rss_mb", bench_rss_mb, "MB"},
       {"bench.fixture_s", fixture_s, "s"},
       {"bench.warmup_s", warmed_s, "s"}});
  return report;
}

// ---------------------------------------------------------------------
// Traced in-process replay.

/// Bench-side spans kept in memory: name, start, end, parent, request id.
/// A disabled tracer records nothing and reads no clock, which is how the
/// untraced replay runs the identical call sequence.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int parent = -1;
    int request = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_->enabled_) index_ = tracer_->Begin(name);
    }
    ~Scope() {
      if (index_ >= 0) tracer_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_request(int request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of the spans called `name` (ns).
  double TotalNs(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += static_cast<double>(s.end_ns - s.start_ns);
    }
    return total;
  }

  /// Per span, its duration minus the time its direct children cover.
  std::vector<uint64_t> SelfNs() const {
    std::vector<uint64_t> self;
    for (const Span& s : spans_) self.push_back(s.end_ns - s.start_ns);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

 private:
  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }
  int Begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request_;
    s.start_ns = Now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = Now();
    open_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  int request_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

template <typename Fn>
auto Timed(Tracer* tracer, const char* name, const Fn& fn) -> decltype(fn()) {
  Tracer::Scope scope(tracer, name);
  return fn();
}

/// One bench-owned resident dataset.
struct Resident {
  std::shared_ptr<TripleStore> kg;  ///< Mesa keeps a raw pointer.
  std::unique_ptr<Mesa> mesa;
};

/// Loads one input the way the program does, under load/preprocess spans.
Result<Resident> LoadResident(const Input& in, Tracer* tracer) {
  Resident r;
  Table table;
  std::vector<std::string> extract = in.extraction_columns;
  if (in.spec.snapshot) {
    std::optional<snapshot::SnapshotReader> reader;
    {
      Tracer::Scope scope(tracer, "load.table");
      MESA_ASSIGN_OR_RETURN(reader,
                            snapshot::SnapshotReader::Open(in.snapshot_path));
      MESA_ASSIGN_OR_RETURN(table, reader->ReadTable());
    }
    MESA_ASSIGN_OR_RETURN(r.kg, Timed(tracer, "load.kg",
                                      [&] { return reader->ReadKg(); }));
    extract = reader->extraction_columns();
  } else {
    MESA_ASSIGN_OR_RETURN(table, Timed(tracer, "load.table", [&] {
                            return ReadCsvFile(in.csv_path);
                          }));
    MESA_ASSIGN_OR_RETURN(TripleStore kg, Timed(tracer, "load.kg", [&] {
                            return ReadKgFile(in.kg_path);
                          }));
    r.kg = std::make_shared<TripleStore>(std::move(kg));
  }
  r.mesa = std::make_unique<Mesa>(std::move(table), r.kg.get(), extract);
  MESA_RETURN_IF_ERROR(
      Timed(tracer, "core.preprocess", [&] { return r.mesa->Preprocess(); }));
  return r;
}

/// Mesa::Explain plus the Router's subgroup step and rendering, one
/// public layer call at a time, each under its own span. Returns the
/// report text the daemon would send.
Result<std::string> DecomposedExplain(Mesa& mesa,
                                      const loadgen::WorkloadQuery& q,
                                      Tracer* tracer) {
  Tracer::Scope request(tracer, "request");
  MESA_ASSIGN_OR_RETURN(QuerySpec query, Timed(tracer, "query.parse", [&] {
                          return ParseQuery(q.sql);
                        }));
  MESA_ASSIGN_OR_RETURN(const Table* table, mesa.augmented_table());
  const std::vector<std::string>& pool = mesa.offline_prune_result().kept;
  MESA_ASSIGN_OR_RETURN(
      QueryAnalysis analysis, Timed(tracer, "core.qa_prepare", [&] {
        return QueryAnalysis::Prepare(*table, query, pool, mesa.kg_columns(),
                                      mesa.options().prepare);
      }));
  OnlinePruneResult pruned = Timed(tracer, "core.online_prune", [&] {
    return OnlinePrune(analysis, mesa.options().online_prune);
  });

  MesaReport report;
  report.query = query;
  report.candidates_total = table->num_columns();
  report.candidates_after_offline = pool.size();
  report.candidates_after_online = pruned.kept_indices.size();
  report.pruned_online = pruned.pruned;
  report.extraction = mesa.extraction_stats();
  report.explanation = Timed(tracer, "core.mcimr", [&] {
    return RunMcimr(analysis, pruned.kept_indices, mesa.options().mcimr);
  });
  report.responsibilities = Timed(tracer, "core.responsibility", [&] {
    return ComputeResponsibilities(analysis,
                                   report.explanation.attribute_indices);
  });
  report.base_cmi = report.explanation.base_cmi;
  report.final_cmi = report.explanation.final_cmi;

  std::vector<UnexplainedSubgroup> groups;
  if (!q.subgroups.empty()) {
    SubgroupOptions sg;
    sg.threshold = 0.05 * report.base_cmi;
    sg.refinement_attributes = q.subgroups;
    MESA_ASSIGN_OR_RETURN(groups, Timed(tracer, "core.subgroups", [&] {
                            return mesa.FindSubgroups(
                                query, report.explanation.attribute_names, sg);
                          }));
  }
  Tracer::Scope format(tracer, "core.format");
  std::string text = FormatReport(report);
  if (!q.subgroups.empty()) text += FormatSubgroups(groups);
  return text;
}

/// Registry counters, registry span sums (ns) and cache statistics that
/// the per-layer metrics are deltas of.
using Counters = std::map<std::string, double>;

// Span sums count only the outermost span of a family on each path
// ("cmi" under "cmi" is one evaluation), so nesting never double counts.
void AddSpanSum(const std::string& path, double sum_ns,
                const std::vector<std::string>& family,
                const std::string& key, Counters* out) {
  bool matched = false;
  for (const std::string& name : family) {
    if (path == name || EndsWith(path, "/" + name)) matched = true;
  }
  if (!matched) return;
  for (const std::string& name : family) {
    if (path.rfind(name + "/", 0) == 0 ||
        path.find("/" + name + "/") != std::string::npos) {
      return;  // nested under an outer span of the same family.
    }
  }
  (*out)[key] += sum_ns;
}

Counters Capture() {
  Counters c;
  const metrics::Snapshot snap = metrics::TakeSnapshot();
  for (const auto& [name, value] : snap.counters) {
    const double v = static_cast<double>(value);
    if (name.rfind("info/", 0) == 0) c[name] = v;
    if (name.rfind("qa/", 0) == 0 && EndsWith(name, "/hit")) c["qa/hit"] += v;
    if (name.rfind("qa/", 0) == 0 && EndsWith(name, "/miss")) c["qa/miss"] += v;
  }
  for (const auto& [path, stats] : snap.distributions) {
    AddSpanSum(path, stats.sum, {"cmi", "mi", "entropy", "cond_entropy"},
               "span/kernel", &c);
    AddSpanSum(path, stats.sum, {"ci_test"}, "span/ci_test", &c);
    AddSpanSum(path, stats.sum, {"kg/extract"}, "span/kg_extract", &c);
    AddSpanSum(path, stats.sum, {"query/join"}, "span/join", &c);
    AddSpanSum(path, stats.sum, {"offline_prune"}, "span/offline_prune", &c);
  }
  const info_cache::Stats cache = info_cache::GetStats();
  c["cache/scalar_hits"] = static_cast<double>(cache.scalar_hits);
  c["cache/scalar_misses"] = static_cast<double>(cache.scalar_misses);
  c["cache/cube_hits"] = static_cast<double>(cache.cube_hits);
  c["cache/cube_misses"] = static_cast<double>(cache.cube_misses);
  c["cache/evictions"] =
      static_cast<double>(cache.scalar_evictions + cache.cube_evictions);
  const DiscretizerCacheStats disc = GetDiscretizerCacheStats();
  c["disc/hits"] = static_cast<double>(disc.hits);
  c["disc/misses"] = static_cast<double>(disc.misses);
  return c;
}

void Accumulate(const Counters& before, const Counters& after,
                Counters* total) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*total)[name] += value - (it == before.end() ? 0.0 : it->second);
  }
}

double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void ClearCaches() {
  info_cache::Clear();
  ClearDiscretizerCache();
}

/// The pool entries the traced replay runs, one request at a time: three
/// cold runs over the first copies, or whole passes over the pool (as
/// many as fit under the request cap, at least one). Whole passes weigh
/// every query the same, so per-request counts repeat exactly for a seed.
std::vector<size_t> ReplayOrder(const Workload& w, size_t pool_size) {
  std::vector<size_t> order;
  if (w.discipline == Discipline::kCold) {
    for (size_t k = 0; k < 3; ++k) order.push_back(k % pool_size);
    return order;
  }
  const size_t passes = std::max<size_t>(1, kTraceRequestCap / pool_size);
  for (size_t r = 0; r < passes * pool_size; ++r) {
    order.push_back(r % pool_size);
  }
  return order;
}

Status WriteSpans(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  const std::vector<uint64_t> self = tracer.SelfNs();
  std::fprintf(f, "[");
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
                 ",\"self_ns\":%" PRIu64 ",\"parent\":%d,\"request\":%d}",
                 i > 0 ? "," : "", serve::JsonQuote(s.name).c_str(),
                 s.start_ns, s.end_ns, self[i], s.parent, s.request);
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot write " + path);
}

Result<RunReport> RunTrace(const Workload& w, const RunOptions& opt,
                           const std::string& dir,
                           const std::string& spans_path) {
  MESA_ASSIGN_OR_RETURN(Fixture fx, MakeFixture(w, opt.seed, dir));
  PoolSizeGuard pool_size(opt.threads);
  RunReport report;
  report.digest = fx.digest;
  const bool cold = w.discipline == Discipline::kCold;
  Tracer traced(true);
  Tracer untraced(false);

  // Resident state by dataset name: every input loaded once under spans.
  // The cold path instead reloads the request's own input per request,
  // with empty caches, as a fresh mesa_cli would. `loads` counts load
  // rounds: all inputs, or one cold input.
  std::map<std::string, Resident> residents;
  Counters preprocess;
  size_t loads = 0;
  auto load = [&](const std::vector<Input>& inputs, Tracer* tracer) -> Status {
    residents.clear();
    const Counters before = Capture();
    for (const Input& in : inputs) {
      MESA_ASSIGN_OR_RETURN(residents[in.name], LoadResident(in, tracer));
    }
    if (tracer == &traced) {
      Accumulate(before, Capture(), &preprocess);
      ++loads;
    }
    return Status::OK();
  };
  // The cold pool asks each input once, in input order.
  auto cold_input = [&](size_t query) {
    return std::vector<Input>{fx.inputs[query]};
  };
  auto check_text = [&](const Result<std::string>& text, size_t query) {
    Check(text.ok() ? Result<Reply>(Reply{true, "", *text, ""})
                    : Result<Reply>(text.status()),
          fx.oracle[query], &report);
  };
  auto explain = [&](size_t query, Tracer* tracer) {
    const loadgen::WorkloadQuery& q = fx.pool[query];
    return DecomposedExplain(*residents.at(q.dataset).mesa, q, tracer);
  };
  auto router = std::make_unique<serve::Router>();

  // Untimed warm-up, so no variant below pays first-use costs alone: the
  // resident paths' pass over the pool, or one extra cold run.
  if (cold) {
    ClearCaches();
    MESA_RETURN_IF_ERROR(load(cold_input(0), &untraced));
    check_text(explain(0, &untraced), 0);
  } else {
    MESA_RETURN_IF_ERROR(load(fx.inputs, &traced));
    MESA_RETURN_IF_ERROR(BuildRouter(router.get(), fx.inputs));
    for (size_t i = 0; i < fx.pool.size(); ++i) {
      check_text(explain(i, &untraced), i);
    }
  }

  // Each replayed request runs three ways, in rotating order: traced
  // decomposed (the per-layer numbers), untraced decomposed (the tracing
  // overhead) and Router::Handle (the serving overhead). The cold path
  // starts each from empty caches and a fresh load.
  Counters layers;
  std::vector<double> untraced_ms;
  std::vector<double> handle_ms;
  auto run_traced = [&](size_t i, size_t query) -> Status {
    if (cold) {
      ClearCaches();
      MESA_RETURN_IF_ERROR(load(cold_input(query), &traced));
    }
    traced.set_request(static_cast<int>(i));
    const Counters before = Capture();
    Result<std::string> text = explain(query, &traced);
    Accumulate(before, Capture(), &layers);
    traced.set_request(-1);
    check_text(text, query);
    return Status::OK();
  };
  auto run_untraced = [&](size_t query) -> Status {
    if (cold) {
      ClearCaches();
      MESA_RETURN_IF_ERROR(load(cold_input(query), &untraced));
    }
    const auto t0 = Clock::now();
    Result<std::string> text = explain(query, &untraced);
    untraced_ms.push_back(MsSince(t0));
    check_text(text, query);
    return Status::OK();
  };
  auto run_handle = [&](size_t query) -> Status {
    if (cold) {
      ClearCaches();
      router = std::make_unique<serve::Router>();
      MESA_RETURN_IF_ERROR(BuildRouter(router.get(), cold_input(query)));
    }
    const auto t0 = Clock::now();
    std::string line = router->Handle(fx.lines[query]).reply_line;
    handle_ms.push_back(MsSince(t0));
    Check(ParseReply(line), fx.oracle[query], &report);
    return Status::OK();
  };

  // The time budget is checked between whole passes only.
  const std::vector<size_t> order = ReplayOrder(w, fx.pool.size());
  const auto replay_start = Clock::now();
  size_t n = 0;
  for (; n < order.size(); ++n) {
    if (!cold && n > 0 && n % fx.pool.size() == 0 &&
        MsSince(replay_start) > opt.seconds * 1000.0) {
      break;
    }
    for (size_t k = 0; k < 3; ++k) {
      const size_t variant = (n + k) % 3;
      MESA_RETURN_IF_ERROR(variant == 0   ? run_traced(n, order[n])
                           : variant == 1 ? run_untraced(order[n])
                                          : run_handle(order[n]));
    }
  }

  // Per-layer metrics: bench spans (wall time on the calling thread) per
  // request, registry span sums (summed over pool workers) per request.
  const double requests = static_cast<double>(n);
  const double per_load = loads > 0 ? 1.0 / static_cast<double>(loads) : 0.0;
  auto per_request_ms = [&](const std::string& span) {
    return traced.TotalNs(span) / 1e6 / requests;
  };
  double request_ns = 0.0;
  double children_ns = 0.0;
  for (const Tracer::Span& s : traced.spans()) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.name == "request") request_ns += d;
    if (s.parent >= 0 &&
        traced.spans()[static_cast<size_t>(s.parent)].name == "request") {
      children_ns += d;
    }
  }
  double untraced_total = 0.0;
  std::vector<double> overhead_us;
  for (size_t i = 0; i < n; ++i) {
    untraced_total += untraced_ms[i];
    overhead_us.push_back((handle_ms[i] - untraced_ms[i]) * 1000.0);
  }
  double handle_total = 0.0;
  for (double ms : handle_ms) handle_total += ms;
  auto get = [](const Counters& c, const std::string& key) {
    auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  auto layer = [&](const std::string& key) { return get(layers, key); };
  const double scalar =
      layer("cache/scalar_hits") + layer("cache/scalar_misses");
  const double cube = layer("cache/cube_hits") + layer("cache/cube_misses");
  const double disc = layer("disc/hits") + layer("disc/misses");
  const double qa = layer("qa/hit") + layer("qa/miss");
  report.metrics = {
      {"load.table_s", traced.TotalNs("load.table") / 1e9 * per_load, "s"},
      {"load.kg_s", traced.TotalNs("load.kg") / 1e9 * per_load, "s"},
      {"core.preprocess_s", traced.TotalNs("core.preprocess") / 1e9 * per_load,
       "s"},
      {"kg.extract_cpu_ms", get(preprocess, "span/kg_extract") / 1e6 * per_load,
       "ms"},
      {"query.join_cpu_ms", get(preprocess, "span/join") / 1e6 * per_load,
       "ms"},
      {"core.offline_prune_cpu_ms",
       get(preprocess, "span/offline_prune") / 1e6 * per_load, "ms"},
      {"query.parse_us", per_request_ms("query.parse") * 1000.0, "us"},
      {"core.qa_prepare_ms", per_request_ms("core.qa_prepare"), "ms"},
      {"core.online_prune_ms", per_request_ms("core.online_prune"), "ms"},
      {"core.mcimr_ms", per_request_ms("core.mcimr"), "ms"},
      {"core.responsibility_ms", per_request_ms("core.responsibility"), "ms"},
      {"core.subgroups_ms", per_request_ms("core.subgroups"), "ms"},
      {"core.format_us", per_request_ms("core.format") * 1000.0, "us"},
      {"serve.handle_ms", handle_total / requests, "ms"},
      {"serve.overhead_us", Median(overhead_us), "us"},
      {"info.cmi_evals", layer("info/cmi_evals") / requests, "count"},
      {"info.mi_evals", layer("info/mi_evals") / requests, "count"},
      {"info.entropy_evals", layer("info/entropy_evals") / requests, "count"},
      {"info.kernel_dense", layer("info/kernel_dense") / requests, "count"},
      {"info.kernel_packed", layer("info/kernel_packed") / requests, "count"},
      {"info.ci_tests", layer("info/ci_tests") / requests, "count"},
      {"info.ci_permutations", layer("info/ci_permutations") / requests,
       "count"},
      {"info.ci_cpu_ms", layer("span/ci_test") / 1e6 / requests, "ms"},
      {"info.kernel_cpu_ms", layer("span/kernel") / 1e6 / requests, "ms"},
      {"info_cache.scalar_hit_ratio",
       Ratio(layer("cache/scalar_hits"), scalar), "ratio"},
      {"info_cache.scalar_lookups", scalar / requests, "count"},
      {"info_cache.cube_hit_ratio", Ratio(layer("cache/cube_hits"), cube),
       "ratio"},
      {"info_cache.cube_lookups", cube / requests, "count"},
      {"info_cache.evictions", layer("cache/evictions"), "count"},
      {"stats.discretizer_hit_ratio", Ratio(layer("disc/hits"), disc),
       "ratio"},
      {"stats.discretizer_lookups", disc / requests, "count"},
      {"core.qa_memo_hit_ratio", Ratio(layer("qa/hit"), qa), "ratio"},
      {"core.qa_memo_lookups", qa / requests, "count"},
      {"trace.coverage_frac", Ratio(children_ns, request_ns), "ratio"},
      {"trace.overhead_frac",
       Ratio(request_ns / 1e6 - untraced_total, untraced_total), "ratio"},
      {"trace.requests", requests, "count"},
  };
  if (!spans_path.empty()) MESA_RETURN_IF_ERROR(WriteSpans(traced, spans_path));
  return report;
}

// ---------------------------------------------------------------------
// Entry points.

Workload* FindWorkload(std::vector<Workload>& all, const std::string& name) {
  for (Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

size_t PoolThreads() {
  return std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()));
}

/// The benchmark measures the program as shipped: drop the environment
/// overrides of its caches, kernels and fault layer, and pin the pool
/// size. Children inherit this environment.
void PinEnvironment(size_t threads) {
  for (const char* name :
       {"MESA_INFO_CACHE", "MESA_CMI_KERNEL", "MESA_FAULT_PLAN"}) {
    ::unsetenv(name);
  }
  ::setenv("MESA_NUM_THREADS", std::to_string(threads).c_str(), 1);
}

/// Scratch directory for one run's inputs, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Result<RunReport> RunOne(const Workload& w, const RunOptions& opt,
                         const std::string& dir, bool trace,
                         const std::string& spans_path) {
  ScratchDir scratch(dir + "/" + w.name + "-" + std::to_string(opt.seed) +
                     "-" + std::to_string(::getpid()));
  return trace ? RunTrace(w, opt, scratch.path(), spans_path)
               : RunE2e(w, opt, scratch.path());
}

Status AppendRecord(const std::string& path, const std::string& workload,
                    const RunOptions& opt, bool trace, const RunReport& r) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return Status::IOError("cannot append to " + path);
  std::fprintf(f,
               "{\"workload\":%s,\"seed\":%" PRIu64
               ",\"seconds\":%s,\"trace\":%d,\"pool_threads\":%zu,"
               "\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
               "\"metrics\":%s,\"diagnostics\":%s,\"replies_digest\":\"%s\"}\n",
               serve::JsonQuote(workload).c_str(), opt.seed,
               JsonNumber(opt.seconds).c_str(), trace ? 1 : 0, opt.threads,
               r.correct() ? "true" : "false", r.attempted, r.failed,
               MetricsJson(r.metrics).c_str(), MetricsJson(r.extras).c_str(),
               Hex(r.digest).c_str());
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot append to " + path);
}

int RunCommand(const Flags& flags, const std::string& command) {
  const bool trace = command == "trace";
  const bool capacity = command == "capacity";
  if (std::string(MESA_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "mesa_bench: refusing to measure a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 MESA_BENCH_BUILD_TYPE);
    return 1;
  }
  RunOptions opt;
  opt.threads = PoolThreads();
  opt.paths = {flags.Get("cli"), flags.Get("serve")};
  int64_t seed = static_cast<int64_t>(kDefaultSeed);
  double seconds = opt.seconds;
  const std::string dir = flags.Get("dir");
  if (!ParseInt64(flags.Get("seed", std::to_string(kDefaultSeed)), &seed) ||
      seed < 0 || !ParseDouble(flags.Get("seconds", "18"), &seconds) ||
      !(seconds > 0.0) || seconds > 600.0 || opt.paths.cli.empty() ||
      opt.paths.serve.empty() || dir.empty()) {
    return Usage();
  }
  opt.seed = static_cast<uint64_t>(seed);
  opt.seconds = seconds;
  std::vector<Workload> all = Workloads(false, opt.threads);
  Workload* w = FindWorkload(all, flags.Get("workload"));
  if (w == nullptr || (capacity && w->discipline == Discipline::kCold)) {
    return Usage();
  }
  if (capacity) w->discipline = Discipline::kClosed;
  PinEnvironment(opt.threads);

  Result<RunReport> report =
      RunOne(*w, opt, dir, trace, trace ? flags.Get("spans") : "");
  if (!report.ok()) {
    std::fprintf(stderr, "mesa_bench: %s failed: %s\n", w->name.c_str(),
                 report.status().ToString().c_str());
    return 2;
  }
  PrintReport(w->name, *report);
  const std::string record = flags.Get("record");
  if (!record.empty() && !capacity) {
    Status s = AppendRecord(record, w->name, opt, trace, *report);
    if (!s.ok()) {
      std::fprintf(stderr, "mesa_bench: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  std::printf("%s\n", ResultLine(*report).c_str());
  return report->correct() ? 0 : 1;
}

/// Every workload at tiny sizes, untraced and traced, oracle on.
int SmokeCommand(const Flags& flags) {
  RunOptions opt;
  opt.threads = PoolThreads();
  opt.seconds = 0.3;
  opt.paths = {flags.Get("cli"), flags.Get("serve")};
  const std::string dir = flags.Get("dir");
  if (opt.paths.cli.empty() || opt.paths.serve.empty() || dir.empty()) {
    return Usage();
  }
  PinEnvironment(opt.threads);
  int failures = 0;
  for (const Workload& w : Workloads(true, opt.threads)) {
    for (bool trace : {false, true}) {
      Result<RunReport> r = RunOne(w, opt, dir, trace, "");
      const bool good = r.ok() && r->correct() && r->failed == 0 &&
                        std::all_of(r->metrics.begin(), r->metrics.end(),
                                    [&](const Metric& m) {
                                      return trace || m.value > 0.0;
                                    });
      std::printf("%-14s %-6s %s\n", w.name.c_str(), trace ? "trace" : "run",
                  good ? "ok"
                  : r.ok() ? ResultLine(*r).c_str()
                           : r.status().ToString().c_str());
      if (!good) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int EnvCommand(const Flags& flags) {
  std::printf("{\"nproc\":%u,\"pool_threads\":%zu,\"compiler\":%s,"
              "\"build_type\":%s,\"git_sha\":%s}\n",
              std::thread::hardware_concurrency(), PoolThreads(),
              serve::JsonQuote("gcc " __VERSION__).c_str(),
              serve::JsonQuote(MESA_BENCH_BUILD_TYPE).c_str(),
              serve::JsonQuote(flags.Get("git-sha", "unknown")).c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return Usage();
  }
  if (command == "run" || command == "trace" || command == "capacity") {
    return RunCommand(flags, command);
  }
  if (command == "smoke") return SmokeCommand(flags);
  if (command == "env") return EnvCommand(flags);
  return Usage();
}

}  // namespace
}  // namespace bench
}  // namespace mesa

int main(int argc, char** argv) { return mesa::bench::Main(argc, argv); }
