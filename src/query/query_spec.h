#ifndef MESA_QUERY_QUERY_SPEC_H_
#define MESA_QUERY_QUERY_SPEC_H_

#include <string>

#include "common/result.h"
#include "query/aggregate.h"
#include "query/predicate.h"
#include "table/table.h"

namespace mesa {

/// The class of queries the paper supports (Section 2.1):
///   SELECT T, agg(O) FROM D WHERE C GROUP BY T
/// T is the exposure (grouping attribute), O the outcome (aggregated
/// attribute), C the context (conjunctive WHERE clause).
struct QuerySpec {
  std::string exposure;  ///< T — grouping attribute.
  /// Additional grouping attributes — the paper's "naturally generalized
  /// for multiple grouping attributes" (e.g. Flights Q4 groups by origin
  /// state AND airline). The effective exposure is the composite of
  /// `exposure` and these.
  std::vector<std::string> secondary_exposures;
  std::string outcome;   ///< O — aggregated attribute (numeric).
  AggregateFunction aggregate = AggregateFunction::kAvg;
  Conjunction context;   ///< C — WHERE clause.
  std::string table_name = "D";  ///< informational only.

  /// All grouping attributes, primary first.
  std::vector<std::string> AllExposures() const;

  /// True if `name` is one of the grouping attributes.
  bool IsExposure(const std::string& name) const;

  /// Renders back to SQL text.
  std::string ToSql() const;

  /// Validates the spec against a table: columns exist, outcome numeric,
  /// exposures != outcome, no duplicate exposure.
  Status Validate(const Table& table) const;
};

}  // namespace mesa

#endif  // MESA_QUERY_QUERY_SPEC_H_
