#ifndef MESA_CORE_MESA_H_
#define MESA_CORE_MESA_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/candidates.h"
#include "core/mcimr.h"
#include "core/pruning.h"
#include "core/responsibility.h"
#include "core/subgroups.h"
#include "kg/extractor.h"
#include "kg/fault_injection.h"
#include "query/sql_parser.h"

namespace mesa {

/// End-to-end configuration of the MESA system.
struct MesaOptions {
  ExtractionOptions extraction;
  bool enable_offline_pruning = true;
  OfflinePruneOptions offline_prune;
  bool enable_online_pruning = true;
  OnlinePruneOptions online_prune;
  PrepareOptions prepare;
  McimrOptions mcimr;
  /// Retry / circuit-breaker / cache tuning of the KG client every
  /// extraction runs through (see docs/robustness.md).
  KgClientOptions kg_client;
  /// Fault plan injected between the client and the KG endpoint — the
  /// grammar of kg/fault_injection.h. Empty = use the MESA_FAULT_PLAN
  /// environment variable; both empty = no fault layer.
  std::string fault_plan;
};

/// Everything MESA produces for one query.
struct MesaReport {
  QuerySpec query;
  Explanation explanation;
  std::vector<AttributeResponsibility> responsibilities;
  /// Candidate funnel: extracted+input -> offline pruning -> online pruning.
  size_t candidates_total = 0;
  size_t candidates_after_offline = 0;
  size_t candidates_after_online = 0;
  std::vector<PrunedAttribute> pruned_online;
  double base_cmi = 0.0;
  double final_cmi = 0.0;
  /// KG extraction bookkeeping (zeroed when no KG was attached). The
  /// report renderer annotates coverage from this.
  ExtractionStats extraction;

  /// "I(O;T|C) = x; explanation {A, B} brings it to y" rendering.
  std::string Summary() const;
};

/// The MESA system (Sections 3–4): owns the input dataset, mines candidate
/// confounders from the knowledge source on demand, prunes, runs MCIMR, and
/// reports explanations with responsibilities. One Mesa instance serves
/// many queries over the same dataset; extraction and offline pruning
/// happen once and are cached.
///
/// Concurrency contract (the resident-daemon substrate — see
/// docs/serving.md): after construction, Explain / ExplainSql /
/// PrepareQuery / FindSubgroups / RankLinks / augmented_table may be
/// called from any number of threads at once. Preprocessing runs exactly
/// once under an internal mutex (concurrent first callers serialize; the
/// winner does the work, the rest observe it); everything it produces
/// (augmented table, candidate pool, extraction stats) is immutable
/// afterwards, and all per-query state lives in a fresh QueryAnalysis per
/// call, whose internal score caches are themselves mutex-guarded.
/// Results are bit-identical to serial, single-client execution — the
/// shared sufficient-statistics and discretizer caches are
/// content-addressed memos of pure values (see docs/performance.md).
class Mesa {
 public:
  /// `kg` may be null (explanations then come from the input table only —
  /// the HypDB regime). `extraction_columns` are the entity-bearing columns
  /// mined from the KG (Table 1's "Columns used for extraction"). The
  /// store is wrapped in a LocalEndpoint, behind a FaultInjectingEndpoint
  /// when a fault plan is configured, and every extraction goes through a
  /// ResilientKgClient over that endpoint.
  Mesa(Table base_table, const TripleStore* kg,
       std::vector<std::string> extraction_columns, MesaOptions options = {});

  /// Runs extraction + offline pruning now (otherwise they run lazily on
  /// the first query). Safe to call concurrently: the work happens once.
  Status Preprocess();

  /// Explains the unexpected correlation in `query`.
  Result<MesaReport> Explain(const QuerySpec& query);

  /// Convenience: parse the SQL text, then Explain.
  Result<MesaReport> ExplainSql(const std::string& sql);

  /// Prepared analysis + the candidate indices surviving online pruning —
  /// the shared substrate for baselines and benchmarks. The analysis is
  /// freshly built per call (it holds per-query state).
  struct PreparedQuery {
    std::shared_ptr<QueryAnalysis> analysis;
    std::vector<size_t> candidate_indices;
    std::vector<PrunedAttribute> pruned_online;
  };
  Result<PreparedQuery> PrepareQuery(const QuerySpec& query);

  /// Identifies the largest unexplained data subgroups for a previously
  /// computed explanation (Section 4.3). `refinement_attributes` defaults
  /// to every categorical column of the base table when empty.
  Result<std::vector<UnexplainedSubgroup>> FindSubgroups(
      const QuerySpec& query, const std::vector<std::string>& explanation,
      SubgroupOptions options);

  /// Relevance of one entity-valued KG link (the paper's §7 future-work
  /// item: "identify which links in a KG are relevant to the explanation
  /// and worthy to follow").
  struct LinkRelevance {
    std::string link;            ///< entity-valued predicate, e.g. "leader".
    std::string best_attribute;  ///< strongest attribute reached through it.
    /// I(O;T|C,E) of that attribute — lower = the link leads to better
    /// explanations. Links whose attributes were all pruned rank last.
    double best_cmi = 0.0;
    size_t attributes = 0;       ///< attributes contributed by the link.
  };

  /// Ranks the 2-hop links of the knowledge source by how much their
  /// extracted attributes individually explain the query (ascending
  /// best_cmi). Requires extraction with hops >= 2 — with 1 hop there are
  /// no followed links and the result is empty.
  Result<std::vector<LinkRelevance>> RankLinks(const QuerySpec& query);

  /// The base table augmented with every extracted attribute (triggers
  /// preprocessing if needed).
  Result<const Table*> augmented_table();

  /// Names of attribute columns attached from the KG.
  const std::vector<std::string>& kg_columns() const { return kg_columns_; }

  /// Extraction bookkeeping (valid after preprocessing).
  const ExtractionStats& extraction_stats() const { return extraction_stats_; }

  /// Offline pruning decisions (valid after preprocessing).
  const PruneResult& offline_prune_result() const { return offline_result_; }

  const MesaOptions& options() const { return options_; }

 private:
  /// The body of Preprocess, run under preprocess_mu_.
  Status PreprocessLocked();

  Table base_table_;
  const TripleStore* kg_;  ///< the store behind the endpoint, if any.
  std::vector<std::string> extraction_columns_;
  MesaOptions options_;
  std::unique_ptr<ResilientKgClient> kg_client_;
  Status setup_status_;  ///< surfaced on first use (bad fault plan, ...).

  /// Serializes lazy preprocessing across concurrent queries. Everything
  /// below is written only by the winner (while the losers wait on the
  /// mutex, which publishes the writes) and read-only afterwards.
  /// shared_ptr keeps Mesa movable, like QueryAnalysis's cache_mu_.
  std::shared_ptr<std::mutex> preprocess_mu_ = std::make_shared<std::mutex>();
  bool preprocessed_ = false;
  Table augmented_;
  std::vector<std::string> kg_columns_;
  ExtractionStats extraction_stats_;
  PruneResult offline_result_;
  std::vector<std::string> candidate_pool_;  ///< offline survivors.
};

}  // namespace mesa

#endif  // MESA_CORE_MESA_H_
