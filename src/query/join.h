#ifndef MESA_QUERY_JOIN_H_
#define MESA_QUERY_JOIN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace mesa {

/// Join flavours. Left joins keep unmatched left rows with nulls on the
/// right side — exactly what attaching sparse KG attributes to a base table
/// needs.
enum class JoinType { kInner, kLeft };

/// Options for a hash equi-join on a single key per side.
struct JoinOptions {
  JoinType type = JoinType::kLeft;
  /// Prefix applied to right-side column names that collide with left-side
  /// names (the key column of the right side is dropped, never duplicated).
  std::string collision_prefix = "right_";
};

/// Hash equi-join of `left` and `right` on left_key == right_key. Null keys
/// never match. If a right key occurs on multiple rows, the first occurrence
/// wins and a warning is logged (KG extraction produces unique entities per
/// key; duplicates indicate a linking problem, and one-row-per-entity keeps
/// the statistical machinery honest — duplicating base rows would bias every
/// estimator downstream).
Result<Table> HashJoin(const Table& left, const std::string& left_key,
                       const Table& right, const std::string& right_key,
                       const JoinOptions& options = {});

}  // namespace mesa

#endif  // MESA_QUERY_JOIN_H_
