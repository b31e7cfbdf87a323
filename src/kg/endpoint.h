#ifndef MESA_KG_ENDPOINT_H_
#define MESA_KG_ENDPOINT_H_

/// KgEndpoint models the *remote* knowledge-graph service the paper's
/// system talks to (a live DBpedia SPARQL endpoint, Section 3.1). Unlike
/// TripleStore — an in-memory structure handing out pointers into itself —
/// an endpoint behaves like an RPC surface: every operation is fallible
/// (it returns Result), responses are owned copies (a remote cannot hand
/// out interior pointers), and implementations may inject latency or
/// faults. The extraction pipeline consumes endpoints through
/// ResilientKgClient (kg/resilient_client.h), which adds retry, circuit
/// breaking, and response caching; see docs/robustness.md.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "kg/entity_linker.h"
#include "kg/triple_store.h"

namespace mesa {

/// One property of an entity, as returned over the wire. Entity-valued
/// objects carry their label inline (the way a SPARQL SELECT would join
/// rdfs:label) so one-hop rendering needs no follow-up call.
struct KgProperty {
  std::string predicate;
  bool is_entity = false;
  Value literal;              ///< set when !is_entity.
  EntityId entity = 0;        ///< set when is_entity.
  std::string entity_label;   ///< label of the object entity.
};

/// Abstract remote KG service.
class KgEndpoint {
 public:
  virtual ~KgEndpoint() = default;

  /// Server-side named-entity resolution of one surface form (exact label,
  /// then alias/normalised, then fuzzy — what the DBpedia lookup service
  /// does). A failed *call* is a non-OK Result; an unresolvable *name* is
  /// an OK Result whose LinkResult reports kNotFound / kAmbiguous.
  virtual Result<LinkResult> Resolve(const std::string& text,
                                     const EntityLinkerOptions& options) = 0;

  /// All properties of one entity, in the store's stable insertion order.
  virtual Result<std::vector<KgProperty>> Properties(EntityId id) = 0;

  /// Binds the caller's virtual clock so the endpoint can charge injected
  /// latency against deadlines. Default: no clock needed.
  virtual void BindClock(VirtualClock* clock) { (void)clock; }

  /// A fresh endpoint equivalent to this one, for a parallel extraction
  /// shard: same answers and same per-argument fault behaviour, but no
  /// shared mutable state (clock binding, attempt bookkeeping) with the
  /// original.
  virtual std::shared_ptr<KgEndpoint> CloneForShard() const = 0;
};

/// The perfectly reliable endpoint: answers straight out of a TripleStore.
/// This is the seed reproduction's behaviour, now behind the RPC surface.
class LocalEndpoint : public KgEndpoint {
 public:
  /// `store` must outlive the endpoint.
  explicit LocalEndpoint(const TripleStore* store);

  Result<LinkResult> Resolve(const std::string& text,
                             const EntityLinkerOptions& options) override;
  Result<std::vector<KgProperty>> Properties(EntityId id) override;
  std::shared_ptr<KgEndpoint> CloneForShard() const override {
    return std::make_shared<LocalEndpoint>(store_);
  }

 private:
  const TripleStore* store_;
};

}  // namespace mesa

#endif  // MESA_KG_ENDPOINT_H_
