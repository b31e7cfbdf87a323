#ifndef MESA_KG_EXTRACTOR_H_
#define MESA_KG_EXTRACTOR_H_

#include <string>

#include "common/result.h"
#include "kg/entity_linker.h"
#include "kg/resilient_client.h"
#include "kg/triple_store.h"
#include "query/aggregate.h"
#include "table/table.h"

namespace mesa {

/// Options for KG attribute extraction (Section 3.1 of the paper).
struct ExtractionOptions {
  /// How many hops to follow. 1 = literal properties of the linked entity;
  /// 2 adds literal properties of entity-valued properties ("Leader Age"),
  /// and so on.
  size_t hops = 1;
  /// Aggregation applied when a predicate has multiple numeric objects for
  /// one subject (the paper's one-to-many accommodation, e.g. "Avg
  /// Population size of Ethnic-Group").
  AggregateFunction one_to_many_agg = AggregateFunction::kAvg;
  /// Linker configuration (type filter, fuzzy matching).
  EntityLinkerOptions linker;
  /// Minimum acceptable KG coverage when extracting through a
  /// ResilientKgClient: the fraction of distinct key values whose lookups
  /// fully succeeded (1 - values_failed / values_total). Per-key failures
  /// degrade gracefully — extraction keeps whatever attributes it could
  /// fetch — but a coverage below this floor returns an error Status
  /// instead of a silently hollow table. 0 (the default) never errors.
  double min_coverage = 0.0;
};

/// Bookkeeping about one extraction run; feeds Table 1 and the appendix's
/// entity-linker discussion.
struct ExtractionStats {
  size_t values_total = 0;      ///< distinct key values seen.
  size_t values_linked = 0;     ///< resolved to an entity.
  size_t values_ambiguous = 0;  ///< dropped: several candidate entities.
  size_t values_not_found = 0;  ///< dropped: no candidate entity.
  size_t attributes_extracted = 0;  ///< columns in the result (minus key).
  /// Key values for which at least one KG lookup failed for good (after
  /// retries); their rows keep whatever attributes were fetched. Always 0
  /// on the raw TripleStore path.
  size_t values_failed = 0;
  /// Client calls that needed at least one retry during this extraction.
  size_t lookups_retried = 0;

  /// Failure-aware coverage: fraction of key values with no failed
  /// lookup. 1.0 when there were no values at all.
  double Coverage() const {
    return values_total == 0
               ? 1.0
               : 1.0 - static_cast<double>(values_failed) /
                           static_cast<double>(values_total);
  }
};

/// Extracts all KG properties for the distinct values of `column` in
/// `table` — the universal-relation flattening of Section 3.1. The result
/// has one row per distinct (linkable or not) key value; its first column
/// repeats `column` so a left HashJoin attaches the attributes to the base
/// table, leaving nulls for unlinked values and absent properties. Numeric
/// attribute columns come out as double, everything else as string; a
/// multi-valued predicate is aggregated per `one_to_many_agg` (numeric) or
/// resolved to its lexicographically first value (categorical).
Result<Table> ExtractAttributes(const Table& table, const std::string& column,
                                const TripleStore& store,
                                const ExtractionOptions& options = {},
                                ExtractionStats* stats = nullptr);

/// Same extraction, but against a (possibly remote, possibly faulty) KG
/// endpoint through the resilient client. Per-key lookup failures that
/// survive the retry policy are recorded in `stats->values_failed` and
/// extraction proceeds with the attributes it could fetch; only a
/// coverage below `options.min_coverage` fails the call. With a
/// fault-free endpoint the result is bit-identical to the raw
/// TripleStore overload.
Result<Table> ExtractAttributes(const Table& table, const std::string& column,
                                ResilientKgClient* client,
                                const ExtractionOptions& options = {},
                                ExtractionStats* stats = nullptr);

/// Extracts on several key columns at once (e.g. Flights extracts on
/// Airline and on Origin city) and joins every extracted attribute onto the
/// base table. Extracted columns are prefixed with "<column>." when needed
/// to stay unique. Returns the augmented table and the names of all
/// attached attribute columns.
struct AugmentResult {
  Table table;
  std::vector<std::string> extracted_columns;
  ExtractionStats stats;
  /// One per-entity table per extraction column (key column first, then the
  /// renamed attribute columns). Offline pruning runs on these — a wikiID
  /// is unique per *entity*, not per joined row, so the high-entropy filter
  /// only fires at this level.
  std::vector<Table> entity_tables;
};
Result<AugmentResult> AugmentTableFromKg(const Table& table,
                                         const std::vector<std::string>& columns,
                                         const TripleStore& store,
                                         const ExtractionOptions& options = {});

/// Client-backed augmentation (what the Mesa pipeline uses). Degrades
/// gracefully per key; see the client ExtractAttributes overload.
Result<AugmentResult> AugmentTableFromKg(const Table& table,
                                         const std::vector<std::string>& columns,
                                         ResilientKgClient* client,
                                         const ExtractionOptions& options = {});

}  // namespace mesa

#endif  // MESA_KG_EXTRACTOR_H_
