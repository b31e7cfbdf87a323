#include "loadgen/summary.h"

#include <cinttypes>
#include <cstdio>

#include "common/metrics.h"
#include "serve/json.h"

namespace mesa {
namespace loadgen {
namespace {

bool HasAnyPrefix(const std::string& name,
                  const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string HexFingerprint(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, fp);
  return buf;
}

serve::JsonValue StatsJson(const LatencyStats& stats) {
  using serve::JsonValue;
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue::Number(static_cast<double>(stats.count)));
  out.Set("p50", JsonValue::Number(stats.p50_ms));
  out.Set("p95", JsonValue::Number(stats.p95_ms));
  out.Set("p99", JsonValue::Number(stats.p99_ms));
  out.Set("mean", JsonValue::Number(stats.mean_ms));
  out.Set("max", JsonValue::Number(stats.max_ms));
  return out;
}

}  // namespace

const std::vector<std::string>& DefaultCounterPrefixes() {
  static const std::vector<std::string>* prefixes =
      new std::vector<std::string>{"serve/", "info_cache/"};
  return *prefixes;
}

CounterMap ReadProcessCounters(const std::vector<std::string>& prefixes) {
  CounterMap counters;
  metrics::Snapshot snapshot = metrics::TakeSnapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (HasAnyPrefix(name, prefixes)) counters[name] = value;
  }
  return counters;
}

Result<CounterMap> ParseCountersJson(
    const std::string& metrics_json,
    const std::vector<std::string>& prefixes) {
  MESA_ASSIGN_OR_RETURN(serve::JsonValue snapshot,
                        serve::JsonValue::Parse(metrics_json));
  const serve::JsonValue* counters = snapshot.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return Status::InvalidArgument(
        "metrics snapshot has no \"counters\" object");
  }
  CounterMap out;
  for (const auto& [name, value] : counters->members()) {
    if (!value.is_number() || !HasAnyPrefix(name, prefixes)) continue;
    out[name] = static_cast<uint64_t>(value.as_number());
  }
  return out;
}

CounterMap CounterDelta(const CounterMap& before, const CounterMap& after) {
  CounterMap delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t base = it == before.end() ? 0 : it->second;
    delta[name] = value >= base ? value - base : 0;
  }
  return delta;
}

WorkloadSummary Summarize(const DriverOptions& options,
                          const RunResult& result, size_t distinct_queries,
                          CounterMap counter_deltas) {
  WorkloadSummary summary;
  summary.mode = options.mode == LoadMode::kOpen ? "open" : "closed";
  summary.seed = options.seed;
  summary.workers = options.workers;
  summary.distinct_queries = distinct_queries;
  summary.attempted = result.attempted;
  summary.ok = result.ok;
  summary.shed = result.shed;
  summary.deadline_exceeded = result.deadline_exceeded;
  summary.cancelled = result.cancelled;
  summary.errors = result.errors;
  summary.shed_rate =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.shed) /
                static_cast<double>(result.attempted);
  summary.deadline_ms = options.deadline_ms;
  summary.deadline_hit_rate =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.deadline_exceeded) /
                static_cast<double>(result.attempted);
  summary.wall_seconds = result.wall_seconds;
  summary.qps = result.wall_seconds > 0.0
                    ? static_cast<double>(result.attempted) /
                          result.wall_seconds
                    : 0.0;
  std::vector<double> ok_latencies_ms;
  std::vector<double> unwind_ms;
  std::vector<double> late_ms;
  const double deadline_budget_ms = static_cast<double>(options.deadline_ms);
  for (const WorkerLog& log : result.logs) {
    for (const LatencyRecord& record : log.records) {
      if (options.mode == LoadMode::kOpen) {
        late_ms.push_back(static_cast<double>(record.late_ns) / 1e6);
      }
      if (record.ok) {
        ok_latencies_ms.push_back(static_cast<double>(record.duration_ns) /
                                  1e6);
      } else if (record.code == "deadline_exceeded" &&
                 deadline_budget_ms > 0.0) {
        // Client-side unwind latency: how far past the budget the
        // deadline_exceeded reply arrived.
        double over_ms =
            static_cast<double>(record.duration_ns) / 1e6 - deadline_budget_ms;
        unwind_ms.push_back(over_ms > 0.0 ? over_ms : 0.0);
      }
    }
  }
  summary.latency = ComputeLatencyStats(std::move(ok_latencies_ms));
  summary.unwind = ComputeLatencyStats(std::move(unwind_ms));
  summary.late = ComputeLatencyStats(std::move(late_ms));
  summary.request_fingerprint = result.request_fingerprint;
  summary.reply_fingerprint = result.reply_fingerprint;
  summary.counter_deltas = std::move(counter_deltas);
  return summary;
}

std::string SummaryToText(const WorkloadSummary& summary) {
  char buf[256];
  std::string text;
  std::snprintf(buf, sizeof(buf),
                "workload: mode=%s seed=%" PRIu64
                " workers=%zu distinct_queries=%zu\n",
                summary.mode.c_str(), summary.seed, summary.workers,
                summary.distinct_queries);
  text += buf;
  std::snprintf(buf, sizeof(buf),
                "requests: attempted=%zu ok=%zu shed=%zu errors=%zu "
                "shed_rate=%.3f\n",
                summary.attempted, summary.ok, summary.shed, summary.errors,
                summary.shed_rate);
  text += buf;
  if (summary.deadline_ms > 0) {
    std::snprintf(buf, sizeof(buf),
                  "deadlines: deadline_ms=%" PRIu64
                  " deadline_exceeded=%zu cancelled=%zu hit_rate=%.3f\n",
                  summary.deadline_ms, summary.deadline_exceeded,
                  summary.cancelled, summary.deadline_hit_rate);
    text += buf;
    std::snprintf(buf, sizeof(buf),
                  "unwind ms (past-deadline, client view): p50=%.3f p95=%.3f "
                  "p99=%.3f mean=%.3f max=%.3f n=%zu\n",
                  summary.unwind.p50_ms, summary.unwind.p95_ms,
                  summary.unwind.p99_ms, summary.unwind.mean_ms,
                  summary.unwind.max_ms, summary.unwind.count);
    text += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "throughput: %.1f req/s over %.3f s (single-core container "
                "numbers are overhead readouts, not scaling claims)\n",
                summary.qps, summary.wall_seconds);
  text += buf;
  std::snprintf(buf, sizeof(buf),
                "latency ms (ok replies, nearest-rank): p50=%.3f p95=%.3f "
                "p99=%.3f mean=%.3f max=%.3f n=%zu\n",
                summary.latency.p50_ms, summary.latency.p95_ms,
                summary.latency.p99_ms, summary.latency.mean_ms,
                summary.latency.max_ms, summary.latency.count);
  text += buf;
  if (summary.mode == "open") {
    std::snprintf(buf, sizeof(buf),
                  "generator lateness ms (pickup - due): p50=%.3f p95=%.3f "
                  "p99=%.3f mean=%.3f max=%.3f n=%zu\n",
                  summary.late.p50_ms, summary.late.p95_ms,
                  summary.late.p99_ms, summary.late.mean_ms,
                  summary.late.max_ms, summary.late.count);
    text += buf;
  }
  text += "fingerprints: requests=" + HexFingerprint(
              summary.request_fingerprint) +
          " replies=" + HexFingerprint(summary.reply_fingerprint) + "\n";
  if (summary.counter_deltas.empty()) {
    text += "counter deltas: (none — metrics off or no matching prefixes)\n";
  } else {
    text += "counter deltas:\n";
    for (const auto& [name, value] : summary.counter_deltas) {
      std::snprintf(buf, sizeof(buf), "  %-40s %" PRIu64 "\n", name.c_str(),
                    value);
      text += buf;
    }
  }
  return text;
}

std::string SummaryToJson(const WorkloadSummary& summary) {
  using serve::JsonValue;
  JsonValue root = JsonValue::Object();
  JsonValue workload = JsonValue::Object();
  workload.Set("mode", JsonValue::Str(summary.mode));
  workload.Set("seed", JsonValue::Number(static_cast<double>(summary.seed)));
  workload.Set("workers",
               JsonValue::Number(static_cast<double>(summary.workers)));
  workload.Set("distinct_queries", JsonValue::Number(static_cast<double>(
                                       summary.distinct_queries)));
  workload.Set("attempted",
               JsonValue::Number(static_cast<double>(summary.attempted)));
  workload.Set("ok", JsonValue::Number(static_cast<double>(summary.ok)));
  workload.Set("shed", JsonValue::Number(static_cast<double>(summary.shed)));
  workload.Set("deadline_exceeded", JsonValue::Number(static_cast<double>(
                                        summary.deadline_exceeded)));
  workload.Set("cancelled",
               JsonValue::Number(static_cast<double>(summary.cancelled)));
  workload.Set("errors",
               JsonValue::Number(static_cast<double>(summary.errors)));
  workload.Set("shed_rate", JsonValue::Number(summary.shed_rate));
  workload.Set("deadline_ms",
               JsonValue::Number(static_cast<double>(summary.deadline_ms)));
  workload.Set("deadline_hit_rate",
               JsonValue::Number(summary.deadline_hit_rate));
  workload.Set("wall_seconds", JsonValue::Number(summary.wall_seconds));
  workload.Set("qps", JsonValue::Number(summary.qps));
  workload.Set("latency_ms", StatsJson(summary.latency));
  if (summary.mode == "open") {
    workload.Set("late_ms", StatsJson(summary.late));
  }
  if (summary.deadline_ms > 0) {
    workload.Set("unwind_ms", StatsJson(summary.unwind));
  }
  workload.Set("request_fingerprint",
               JsonValue::Str(HexFingerprint(summary.request_fingerprint)));
  workload.Set("reply_fingerprint",
               JsonValue::Str(HexFingerprint(summary.reply_fingerprint)));
  JsonValue deltas = JsonValue::Object();
  for (const auto& [name, value] : summary.counter_deltas) {
    deltas.Set(name, JsonValue::Number(static_cast<double>(value)));
  }
  workload.Set("counter_deltas", std::move(deltas));
  root.Set("workload", std::move(workload));
  return root.Serialize();
}

Status WriteSummaryJsonFile(const WorkloadSummary& summary,
                            const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot write workload summary to " + path);
  }
  std::string json = SummaryToJson(summary);
  json += '\n';
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int closed = std::fclose(f);
  if (written != json.size() || closed != 0) {
    return Status::IOError("short write of workload summary to " + path);
  }
  return Status::OK();
}

}  // namespace loadgen
}  // namespace mesa
