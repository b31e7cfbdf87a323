#include "serve/router.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "core/report_format.h"
#include "query/sql_parser.h"
#include "snapshot/dataset_loader.h"

namespace mesa {
namespace serve {
namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wire rendering of a StatusCode ("resource_exhausted", ...).
const char* WireCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kIOError: return "io_error";
    case StatusCode::kNotImplemented: return "not_implemented";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kCancelled: return "cancelled";
  }
  return "internal";
}

std::string ErrorLine(const std::string& trace_id, const std::string& verb,
                      const std::string& code, const std::string& message) {
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(false));
  reply.Set("trace_id", JsonValue::Str(trace_id));
  if (!verb.empty()) reply.Set("verb", JsonValue::Str(verb));
  reply.Set("code", JsonValue::Str(code));
  reply.Set("error", JsonValue::Str(message));
  return reply.Serialize();
}

std::string StatusErrorLine(const std::string& trace_id,
                            const std::string& verb, const Status& status) {
  return ErrorLine(trace_id, verb, WireCode(status.code()), status.message());
}

}  // namespace

/// Per-request scope: installs the trace ID for this thread (pool workers
/// inherit it — see common/parallel.cc), opens the root span, and records
/// a TraceEvent on destruction.
class Router::RequestScope {
 public:
  RequestScope(std::string trace_id, std::string name)
      : trace_id_(std::move(trace_id)),
        name_(std::move(name)),
        id_guard_(trace_id_),
        path_guard_(name_),
        start_ns_(NowNanos()) {}

  ~RequestScope() {
    metrics::TraceEvent event;
    event.id = trace_id_;
    event.name = name_;
    event.ok = ok_;
    event.duration_ns = NowNanos() - start_ns_;
    // End-to-end request latency as the daemon sees it — the load
    // harness (docs/performance.md §7) diffs these against its own
    // client-side percentiles to isolate transport cost.
    MESA_RECORD("serve/request_ns", event.duration_ns);
    if (ok_) MESA_COUNT("serve/replies_ok");
    metrics::RecordTrace(std::move(event));
  }

  void set_ok(bool ok) { ok_ = ok; }

 private:
  std::string trace_id_;
  std::string name_;
  metrics::TraceIdGuard id_guard_;
  /// The request is the trace root: spans opened inside Explain nest as
  /// "serve/explain/explain/...", keeping daemon and one-shot span
  /// hierarchies distinguishable in the snapshot.
  metrics::PathGuard path_guard_;
  uint64_t start_ns_;
  bool ok_ = false;
};

/// RAII entry in the in-flight registry: registers the request's cancel
/// token on admission so a drain (CancelInflight) or the stuck-request
/// watchdog (ScanStuck) can reach requests they did not start, and
/// removes it on any unwind — reply, error, or cancellation alike.
class Router::InflightRegistration {
 public:
  InflightRegistration(Router* router, const std::string& trace_id,
                       std::shared_ptr<CancelToken> token)
      : router_(router) {
    Inflight entry;
    entry.trace_id = trace_id;
    entry.token = std::move(token);
    entry.start_ns = NowNanos();
    std::lock_guard<std::mutex> lock(router_->inflight_mu_);
    id_ = router_->inflight_seq_++;
    router_->inflight_.emplace(id_, std::move(entry));
  }

  ~InflightRegistration() {
    std::lock_guard<std::mutex> lock(router_->inflight_mu_);
    router_->inflight_.erase(id_);
  }

  InflightRegistration(const InflightRegistration&) = delete;
  InflightRegistration& operator=(const InflightRegistration&) = delete;

 private:
  Router* router_;
  uint64_t id_ = 0;
};

Router::Router(RouterOptions options)
    : options_(options), admission_(options.max_inflight) {}

Status Router::AddDataset(const DatasetSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  if (datasets_.count(spec.name) > 0) {
    return Status::AlreadyExists("dataset '" + spec.name +
                                 "' already resident");
  }
  Result<LoadedDataset> loaded = LoadDataset(
      {spec.csv_path, spec.snapshot_path, spec.kg_path,
       spec.extraction_columns});
  if (!loaded.ok()) {
    const Status& error = loaded.status();
    return Status(error.code(), "dataset '" + spec.name + "': " +
                                    error.message());
  }

  ResidentDataset dataset;
  dataset.name = spec.name;
  dataset.source_path =
      spec.snapshot_path.empty() ? spec.csv_path : spec.snapshot_path;
  dataset.kg = std::move(loaded->kg);
  dataset.rows = loaded->table.num_rows();
  dataset.columns = loaded->table.num_columns();
  dataset.mesa = std::make_unique<Mesa>(std::move(loaded->table),
                                        dataset.kg.get(),
                                        std::move(loaded->extraction_columns),
                                        spec.options);
  names_.push_back(spec.name);
  datasets_.emplace(spec.name, std::move(dataset));
  return Status::OK();
}

Status Router::WarmStart() {
  for (auto& [name, dataset] : datasets_) {
    Status status = dataset.mesa->Preprocess();
    if (!status.ok()) {
      return Status(status.code(),
                    "warm start of '" + name + "': " + status.message());
    }
  }
  return Status::OK();
}

const ResidentDataset* Router::FindDataset(const std::string& name) const {
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : &it->second;
}

std::string Router::NextTraceId() {
  uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
  // The sequence number alone guarantees uniqueness within the process;
  // the hash suffix distinguishes daemon instances in scraped logs.
  const void* self = this;
  uint64_t h = StableHash64Bytes(&self, sizeof(self)) ^
               (seq * 0x9e3779b97f4a7c15ULL);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "t-%llu-%04llx",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(h & 0xffff));
  return buf;
}

std::string Router::ErrorReplyLine(const std::string& code,
                                   const std::string& message) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  MESA_COUNT("serve/requests");
  MESA_COUNT("serve/errors");
  return ErrorLine(NextTraceId(), "", code, message);
}

Router::HandleResult Router::Handle(const std::string& request_line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  MESA_COUNT("serve/requests");
  const std::string trace_id = NextTraceId();

  Result<JsonValue> parsed = JsonValue::Parse(request_line);
  if (!parsed.ok()) {
    MESA_COUNT("serve/errors");
    return {StatusErrorLine(trace_id, "", parsed.status()), false};
  }
  if (!parsed->is_object()) {
    MESA_COUNT("serve/errors");
    return {ErrorLine(trace_id, "", "invalid_argument",
                      "request must be a JSON object"),
            false};
  }
  const std::string verb = parsed->GetString("verb");
  if (verb == "explain") return HandleExplain(*parsed, trace_id);
  if (verb == "status") return HandleStatus(trace_id);
  if (verb == "metrics") return HandleMetrics(trace_id);
  if (verb == "shutdown") {
    RequestScope scope(trace_id, "serve/shutdown");
    scope.set_ok(true);
    JsonValue reply = JsonValue::Object();
    reply.Set("ok", JsonValue::Bool(true));
    reply.Set("trace_id", JsonValue::Str(trace_id));
    reply.Set("verb", JsonValue::Str("shutdown"));
    reply.Set("shutting_down", JsonValue::Bool(true));
    return {reply.Serialize(), true};
  }
  MESA_COUNT("serve/errors");
  return {ErrorLine(trace_id, verb, "invalid_argument",
                    verb.empty() ? "missing verb"
                                 : "unknown verb '" + verb + "'"),
          false};
}

Router::HandleResult Router::HandleExplain(const JsonValue& request,
                                           const std::string& trace_id) {
  const std::string dataset_name = request.GetString("dataset");
  const std::string sql = request.GetString("sql");
  if (dataset_name.empty() || sql.empty()) {
    MESA_COUNT("serve/errors");
    return {ErrorLine(trace_id, "explain", "invalid_argument",
                      "explain needs 'dataset' and 'sql'"),
            false};
  }
  const ResidentDataset* dataset = FindDataset(dataset_name);
  if (dataset == nullptr) {
    MESA_COUNT("serve/errors");
    return {ErrorLine(trace_id, "explain", "not_found",
                      "no resident dataset '" + dataset_name + "'"),
            false};
  }

  // Admission: shed instead of queue. The reply is cheap by design — the
  // permit check happens before any per-request work.
  AdmissionController::Permit permit = admission_.TryAcquire();
  if (!permit.ok()) {
    MESA_COUNT("serve/admission/shed");
    return {ErrorLine(trace_id, "explain", "resource_exhausted",
                      "explain capacity exhausted (" +
                          std::to_string(admission_.max_inflight()) +
                          " in flight); retry later"),
            false};
  }
  MESA_COUNT("serve/admission/accepted");

  // Deadline: the request's own `deadline_ms` wins over the daemon
  // default. The token is charged from this point, so time spent inside
  // the daemon (parse, analysis, execution) all counts against the
  // budget; pipeline checkpoints (common/cancel.h) do the enforcement.
  // A request with no deadline still gets a token — a drain cancels it
  // through the in-flight registry.
  uint64_t deadline_ms =
      static_cast<uint64_t>(request.GetNumber("deadline_ms", 0.0));
  if (deadline_ms == 0) deadline_ms = options_.default_deadline_ms;
  std::shared_ptr<CancelToken> token = CancelToken::WithTimeoutMs(deadline_ms);

  RequestScope scope(trace_id, "serve/explain");
  CancelScope cancel_scope(token);
  InflightRegistration registration(this, trace_id, token);
  if (explain_hook_) explain_hook_();

  // Every failure unwinds through here. Cancellation outcomes get their
  // own counters; the deadline bucket is gated on the *token* having
  // expired so a KG retry-budget DeadlineExceeded (docs/robustness.md)
  // is not mistaken for a request deadline.
  auto fail = [&](const Status& status) -> HandleResult {
    const uint64_t token_deadline = token->deadline_ns();
    if (status.code() == StatusCode::kCancelled) {
      MESA_COUNT("serve/cancelled");
    } else if (status.code() == StatusCode::kDeadlineExceeded &&
               token_deadline != 0 && !token->Check().ok()) {
      MESA_COUNT("serve/deadline_exceeded");
      const uint64_t now = CancelClockNowNs();
      if (now > token_deadline) {
        // Unwind latency: deadline firing -> error reply ready. The
        // bound the checkpoints buy (docs/robustness.md).
        MESA_RECORD("serve/unwind_ns", now - token_deadline);
      }
    } else {
      MESA_COUNT("serve/errors");
    }
    return {StatusErrorLine(trace_id, "explain", status), false};
  };

  // Fast unwind for requests that arrived already expired (or were
  // cancelled by a drain while the hook held them).
  Status early = token->Check();
  if (!early.ok()) return fail(early);

  Result<QuerySpec> query = ParseQuery(sql);
  if (!query.ok()) return fail(query.status());
  Result<MesaReport> report = dataset->mesa->Explain(*query);
  if (!report.ok()) return fail(report.status());

  // Render exactly what `mesa_cli explain [--subgroups ...]` prints, so
  // daemon replies stay byte-comparable to one-shot goldens.
  std::string text = FormatReport(*report);
  const JsonValue* subgroups = request.Find("subgroups");
  if (subgroups != nullptr && subgroups->is_array() &&
      !subgroups->elements().empty()) {
    SubgroupOptions sg;
    sg.threshold = 0.05 * report->base_cmi;
    for (const JsonValue& col : subgroups->elements()) {
      if (col.is_string() && !col.as_string().empty()) {
        sg.refinement_attributes.push_back(col.as_string());
      }
    }
    Result<std::vector<UnexplainedSubgroup>> groups =
        dataset->mesa->FindSubgroups(*query,
                                     report->explanation.attribute_names, sg);
    if (!groups.ok()) return fail(groups.status());
    text += FormatSubgroups(*groups);
  }

  scope.set_ok(true);
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(true));
  reply.Set("trace_id", JsonValue::Str(trace_id));
  reply.Set("verb", JsonValue::Str("explain"));
  reply.Set("dataset", JsonValue::Str(dataset_name));
  reply.Set("report", JsonValue::Str(text));
  reply.Set("base_cmi", JsonValue::Number(report->base_cmi));
  reply.Set("final_cmi", JsonValue::Number(report->final_cmi));
  JsonValue explanation = JsonValue::Array();
  for (const std::string& name : report->explanation.attribute_names) {
    explanation.Append(JsonValue::Str(name));
  }
  reply.Set("explanation", std::move(explanation));
  // Degraded-coverage visibility (docs/robustness.md): a daemon whose KG
  // had permanent faults serves partial extractions; every reply says so.
  reply.Set("coverage", JsonValue::Number(report->extraction.Coverage()));
  reply.Set("values_failed",
            JsonValue::Number(
                static_cast<double>(report->extraction.values_failed)));
  return {reply.Serialize(), false};
}

size_t Router::inflight_requests() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_.size();
}

size_t Router::CancelInflight(uint64_t deadline_ns) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  for (auto& [id, entry] : inflight_) {
    (void)id;
    entry.token->TightenDeadlineNs(deadline_ns);
  }
  MESA_COUNT_N("serve/drain_cancelled", inflight_.size());
  return inflight_.size();
}

size_t Router::ScanStuck(uint64_t now_ns, double multiplier) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  size_t flagged = 0;
  for (auto& [id, entry] : inflight_) {
    (void)id;
    if (entry.stuck_logged) continue;
    const uint64_t deadline = entry.token->deadline_ns();
    // No deadline means no budget to exceed; a deadline at/before the
    // start is a drain artifact, not a budget.
    if (deadline == 0 || deadline <= entry.start_ns) continue;
    if (now_ns <= entry.start_ns) continue;
    const uint64_t budget_ns = deadline - entry.start_ns;
    const uint64_t elapsed_ns = now_ns - entry.start_ns;
    if (static_cast<double>(elapsed_ns) >
        multiplier * static_cast<double>(budget_ns)) {
      entry.stuck_logged = true;
      ++flagged;
      MESA_COUNT("serve/stuck_requests");
      MESA_LOG(Warning) << "stuck request " << entry.trace_id << ": "
                        << elapsed_ns / 1000000 << " ms elapsed against a "
                        << budget_ns / 1000000
                        << " ms deadline budget and still not unwinding";
    }
  }
  return flagged;
}

Router::HandleResult Router::HandleStatus(const std::string& trace_id) {
  RequestScope scope(trace_id, "serve/status");
  scope.set_ok(true);
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(true));
  reply.Set("trace_id", JsonValue::Str(trace_id));
  reply.Set("verb", JsonValue::Str("status"));
  JsonValue datasets = JsonValue::Array();
  for (const std::string& name : names_) {
    const ResidentDataset& dataset = datasets_.at(name);
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::Str(name));
    entry.Set("rows",
              JsonValue::Number(static_cast<double>(dataset.rows)));
    entry.Set("columns",
              JsonValue::Number(static_cast<double>(dataset.columns)));
    entry.Set("kg_columns",
              JsonValue::Number(
                  static_cast<double>(dataset.mesa->kg_columns().size())));
    entry.Set("coverage",
              JsonValue::Number(dataset.mesa->extraction_stats().Coverage()));
    datasets.Append(std::move(entry));
  }
  reply.Set("datasets", std::move(datasets));
  reply.Set("in_flight",
            JsonValue::Number(static_cast<double>(admission_.in_flight())));
  reply.Set("max_inflight", JsonValue::Number(static_cast<double>(
                                admission_.max_inflight())));
  reply.Set("shed",
            JsonValue::Number(static_cast<double>(admission_.shed())));
  reply.Set("requests", JsonValue::Number(static_cast<double>(
                            requests_.load(std::memory_order_relaxed))));
  return {reply.Serialize(), false};
}

Router::HandleResult Router::HandleMetrics(const std::string& trace_id) {
  RequestScope scope(trace_id, "serve/metrics");
  scope.set_ok(true);
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", JsonValue::Bool(true));
  reply.Set("trace_id", JsonValue::Str(trace_id));
  reply.Set("verb", JsonValue::Str("metrics"));
  // The snapshot is already JSON; splice it in verbatim.
  reply.Set("metrics", JsonValue::Raw(metrics::SnapshotJson()));
  return {reply.Serialize(), false};
}

}  // namespace serve
}  // namespace mesa
