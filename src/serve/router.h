#ifndef MESA_SERVE_ROUTER_H_
#define MESA_SERVE_ROUTER_H_

/// Request router for the explain daemon: owns the resident datasets
/// (CSV loaded, KG joined, pruning done, caches warm), dispatches the
/// wire verbs (explain / status / metrics / shutdown), stamps every
/// request with a unique trace ID, and runs explains through the
/// admission controller. Protocol reference: docs/serving.md.
///
/// Thread-safety: AddDataset / WarmStart are setup-time (single thread,
/// before serving). Handle may then be called from any number of
/// connection threads concurrently — resident state is immutable during
/// serving and Mesa::Explain is safe under concurrent callers (see
/// core/mesa.h).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/mesa.h"
#include "kg/triple_store.h"
#include "serve/admission.h"
#include "serve/json.h"

namespace mesa {
namespace serve {

struct RouterOptions {
  /// Cap on concurrently executing explain requests; excess requests are
  /// shed with a fast resource_exhausted reply (never queued).
  size_t max_inflight = 4;
  /// Deadline charged to explain requests that carry no `deadline_ms`
  /// field of their own; 0 = no default deadline. The deadline covers
  /// everything from request receipt to reply (admission + parse +
  /// execution), enforced through common/cancel.h checkpoints.
  uint64_t default_deadline_ms = 0;
};

/// One resident dataset: the knowledge graph (if any) and the Mesa
/// instance answering queries over it.
struct ResidentDataset {
  std::string name;
  std::string source_path;          ///< the CSV or .msnap it was loaded from.
  std::shared_ptr<TripleStore> kg;  ///< Mesa holds a raw pointer into it.
  std::unique_ptr<Mesa> mesa;
  size_t rows = 0;
  size_t columns = 0;
};

class Router {
 public:
  explicit Router(RouterOptions options = {});

  struct DatasetSpec {
    std::string name;
    /// Either a CSV (+ optional kg_path) or a binary snapshot — exactly
    /// one of csv_path / snapshot_path must be set. A snapshot carries
    /// its own KG and extraction column list (src/snapshot/reader.h).
    std::string csv_path;
    std::string snapshot_path;
    std::string kg_path;  ///< empty = no knowledge graph (HypDB regime).
    std::vector<std::string> extraction_columns;
    MesaOptions options;
  };

  /// Loads the CSV (+ KG) or snapshot from disk and builds the resident
  /// Mesa — through LoadDataset (snapshot/dataset_loader.h), the loader
  /// `mesa_cli explain` uses, so daemon replies are byte-identical to
  /// one-shot runs over the same files.
  Status AddDataset(const DatasetSpec& spec);

  /// Preprocesses every resident dataset now (extraction, offline
  /// pruning, cache fill) so the first explain request pays nothing.
  Status WarmStart();

  struct HandleResult {
    std::string reply_line;  ///< serialized JSON reply, no newline.
    bool shutdown = false;   ///< a shutdown request was accepted.
  };

  /// Parses and executes one request line. Never throws and never
  /// returns a non-protocol error: malformed input becomes an ok=false
  /// reply, so the connection always has a line to send back.
  HandleResult Handle(const std::string& request_line);

  /// Protocol-shaped error reply for transport-level failures the
  /// connection detects itself (oversized line). Stamped with a fresh
  /// trace ID like any other reply.
  std::string ErrorReplyLine(const std::string& code,
                             const std::string& message);

  AdmissionController& admission() { return admission_; }
  const std::vector<std::string>& dataset_names() const { return names_; }
  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Number of admitted explain requests currently executing (the
  /// in-flight registry's size; a superset check of admission permits —
  /// every registered request holds one).
  size_t inflight_requests() const;

  /// Drain support: tightens every in-flight request's cancel token to
  /// `deadline_ns` (absolute steady-clock ns; see common/cancel.h), so
  /// each unwinds at its next checkpoint and replies cancelled /
  /// deadline_exceeded. Returns how many requests were told to stop
  /// (counted in `serve/drain_cancelled`).
  size_t CancelInflight(uint64_t deadline_ns);

  /// Stuck-request watchdog scan: a request whose elapsed time exceeds
  /// `multiplier` times its deadline budget without unwinding is logged
  /// and counted (`serve/stuck_requests`), once per request. `now_ns` is
  /// explicit so tests can drive the scan deterministically. Requests
  /// with no deadline are never stuck. Returns newly-flagged requests.
  size_t ScanStuck(uint64_t now_ns, double multiplier);

  /// Test-only: invoked inside every admitted explain request — permit
  /// held, in-flight registry entry live, CancelScope installed — so
  /// tests can hold requests in flight and observe drain / watchdog
  /// behaviour deterministically.
  void set_explain_hook(std::function<void()> hook) {
    explain_hook_ = std::move(hook);
  }

 private:
  class RequestScope;
  class InflightRegistration;

  /// One admitted explain currently executing.
  struct Inflight {
    std::string trace_id;
    std::shared_ptr<CancelToken> token;
    uint64_t start_ns = 0;
    bool stuck_logged = false;  ///< watchdog flagged it already.
  };

  const ResidentDataset* FindDataset(const std::string& name) const;
  std::string NextTraceId();

  HandleResult HandleExplain(const JsonValue& request,
                             const std::string& trace_id);
  HandleResult HandleStatus(const std::string& trace_id);
  HandleResult HandleMetrics(const std::string& trace_id);

  RouterOptions options_;
  AdmissionController admission_;
  std::map<std::string, ResidentDataset> datasets_;
  std::vector<std::string> names_;  ///< insertion order, for status.
  std::atomic<uint64_t> trace_seq_{0};
  std::atomic<uint64_t> requests_{0};
  std::function<void()> explain_hook_;  ///< test-only, set before serving.

  mutable std::mutex inflight_mu_;
  uint64_t inflight_seq_ = 0;               ///< guarded by inflight_mu_.
  std::map<uint64_t, Inflight> inflight_;   ///< guarded by inflight_mu_.
};

}  // namespace serve
}  // namespace mesa

#endif  // MESA_SERVE_ROUTER_H_
