#include "loadgen/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/retry.h"
#include "loadgen/schedule.h"
#include "serve/json.h"

namespace mesa {
namespace loadgen {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t Combine(uint64_t h, uint64_t v) {
  // FNV-style fold of already-mixed 64-bit values; order-sensitive.
  return (h ^ v) * 0x100000001b3ULL;
}

uint64_t HashReplyFields(size_t query_index, const LatencyRecord& record) {
  std::string key = std::to_string(query_index);
  key += record.ok ? "|ok|" : "|err|";
  key += record.code;
  key += '|';
  key += record.report;
  key += '|';
  key += record.error;
  return StableHash64(key);
}

/// Parses one reply line into the record's outcome fields. An
/// unparseable reply counts as a transport-grade error — the server
/// promises line-framed JSON.
void FillFromReply(const std::string& reply_line, LatencyRecord* record) {
  Result<serve::JsonValue> reply = serve::JsonValue::Parse(reply_line);
  if (!reply.ok() || !reply->is_object()) {
    record->ok = false;
    record->code = "bad_reply";
    record->error = "unparseable reply line";
    return;
  }
  record->ok = reply->GetBool("ok");
  record->code = reply->GetString("code");
  record->report = reply->GetString("report");
  record->error = reply->GetString("error");
}

struct WorkerState {
  std::unique_ptr<RequestTarget> target;
  WorkerLog log;
};

}  // namespace

Result<std::unique_ptr<SocketTarget>> SocketTarget::Connect(
    uint16_t port, const std::string& host,
    serve::ClientOptions client_options) {
  MESA_ASSIGN_OR_RETURN(std::unique_ptr<serve::Client> client,
                        serve::Client::Connect(port, host, client_options));
  return std::unique_ptr<SocketTarget>(new SocketTarget(std::move(client)));
}

Result<RunResult> RunWorkload(const std::vector<WorkloadQuery>& queries,
                              const TargetFactory& factory,
                              const DriverOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("workload has no queries");
  }
  if (options.workers == 0) {
    return Status::InvalidArgument("driver needs at least one worker");
  }

  // Request lines are serialized once; workers only read them.
  std::vector<std::string> request_lines;
  request_lines.reserve(queries.size());
  for (const WorkloadQuery& query : queries) {
    request_lines.push_back(query.RequestLine(options.deadline_ms));
  }

  const bool open_loop = options.mode == LoadMode::kOpen;
  const std::vector<uint64_t> arrivals =
      open_loop ? OpenLoopArrivalsNs({options.seed, options.target_qps,
                                      options.total_requests})
                : std::vector<uint64_t>{};
  if (open_loop && arrivals.empty()) {
    return Status::InvalidArgument(
        "open loop needs total_requests > 0 and target_qps > 0");
  }

  // Targets up front: a refused connection fails the run before any
  // load is applied, not halfway through.
  std::vector<WorkerState> workers(options.workers);
  for (size_t w = 0; w < options.workers; ++w) {
    MESA_ASSIGN_OR_RETURN(workers[w].target, factory(w));
  }

  RunResult result;

  // The request fingerprint is a pure function of the schedule: it can
  // (and must) be computed without running anything.
  {
    uint64_t fp = 0xcbf29ce484222325ULL;
    if (open_loop) {
      for (size_t i = 0; i < options.total_requests; ++i) {
        size_t qi = QueryIndexFor(options.seed, 0, i, queries.size());
        fp = Combine(fp, StableHash64(request_lines[qi]));
      }
    } else {
      for (size_t w = 0; w < options.workers; ++w) {
        for (size_t r = 0; r < options.requests_per_worker; ++r) {
          size_t qi = QueryIndexFor(options.seed, w, r, queries.size());
          fp = Combine(fp, StableHash64(request_lines[qi]));
        }
      }
    }
    result.request_fingerprint = fp;
  }

  std::atomic<size_t> next_arrival{0};
  const Clock::time_point start = Clock::now();

  auto ns_between = [](Clock::time_point from, Clock::time_point to) {
    return to <= from ? uint64_t{0}
                      : static_cast<uint64_t>(
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                to - from)
                                .count());
  };

  // An open-loop request's latency runs from its due time, not from
  // pickup, so a wait for a busy worker counts; a closed-loop request is
  // due when it is picked up.
  auto run_one = [&](WorkerState* state, size_t worker, size_t request,
                     size_t query_index,
                     std::optional<Clock::time_point> open_due) {
    LatencyRecord record;
    record.worker = worker;
    record.request = request;
    record.query_index = query_index;
    const Clock::time_point pickup = Clock::now();
    const Clock::time_point due = open_due.value_or(pickup);
    record.start_ns = ns_between(start, due);
    record.late_ns = ns_between(due, pickup);
    Result<std::string> reply =
        state->target->Call(request_lines[query_index]);
    record.duration_ns = ns_between(due, Clock::now());
    if (reply.ok()) {
      FillFromReply(*reply, &record);
    } else {
      record.ok = false;
      record.code = "transport";
      record.error = reply.status().ToString();
    }
    state->log.records.push_back(std::move(record));
  };

  auto closed_loop_worker = [&](size_t w) {
    WorkerState* state = &workers[w];
    for (size_t r = 0; r < options.requests_per_worker; ++r) {
      if (r > 0 && options.think_ns > 0) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(options.think_ns));
      }
      run_one(state, w, r, QueryIndexFor(options.seed, w, r, queries.size()),
              std::nullopt);
    }
  };

  auto open_loop_worker = [&](size_t w) {
    WorkerState* state = &workers[w];
    for (;;) {
      size_t i = next_arrival.fetch_add(1, std::memory_order_relaxed);
      if (i >= arrivals.size()) break;
      const Clock::time_point due =
          start + std::chrono::nanoseconds(arrivals[i]);
      std::this_thread::sleep_until(due);
      run_one(state, w, i, QueryIndexFor(options.seed, 0, i, queries.size()),
              due);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(options.workers);
  for (size_t w = 0; w < options.workers; ++w) {
    if (open_loop) {
      threads.emplace_back([&, w] { open_loop_worker(w); });
    } else {
      threads.emplace_back([&, w] { closed_loop_worker(w); });
    }
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Merge: records ordered by the schedule key — (worker, request) in
  // closed loop, global arrival index in open loop — so the reply
  // fingerprint does not depend on interleaving.
  std::vector<const LatencyRecord*> ordered;
  for (WorkerState& state : workers) {
    for (const LatencyRecord& record : state.log.records) {
      ordered.push_back(&record);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [&](const LatencyRecord* a, const LatencyRecord* b) {
              if (open_loop) return a->request < b->request;
              return a->worker != b->worker ? a->worker < b->worker
                                            : a->request < b->request;
            });

  uint64_t reply_fp = 0xcbf29ce484222325ULL;
  for (const LatencyRecord* record : ordered) {
    reply_fp = Combine(reply_fp, HashReplyFields(record->query_index, *record));
    ++result.attempted;
    if (record->ok) {
      ++result.ok;
    } else if (record->code == "resource_exhausted") {
      ++result.shed;
    } else if (record->code == "deadline_exceeded") {
      ++result.deadline_exceeded;
    } else if (record->code == "cancelled") {
      ++result.cancelled;
    } else {
      ++result.errors;
    }
  }
  result.reply_fingerprint = reply_fp;

  result.logs.reserve(workers.size());
  for (WorkerState& state : workers) {
    if (!options.capture_replies) {
      for (LatencyRecord& record : state.log.records) {
        record.report.clear();
        record.error.clear();
      }
    }
    result.logs.push_back(std::move(state.log));
  }
  return result;
}

}  // namespace loadgen
}  // namespace mesa
