#ifndef MESA_QUERY_JOIN_H_
#define MESA_QUERY_JOIN_H_

#include <array>
#include <string>
#include <unordered_map>
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

/// The build side of a hash join, reusable across probes: right key ->
/// first row holding it. `HashJoin(left, left_key, right, right_key)`
/// builds one per call; a caller that probes one right side several times
/// can build it once and pass it by const ref to the index overload. The
/// index is radix-partitioned on the key
/// hash so construction can proceed partition-parallel; the partition of a
/// key is a pure function of its value, so the finished structure — and
/// which duplicate row wins — is identical at any thread count.
class JoinIndex {
 public:
  /// Builds the index over `right[right_key]`. Null keys are skipped. If a
  /// key occurs on multiple rows the first occurrence wins and a warning is
  /// logged (see HashJoin below for why duplicates are collapsed).
  static Result<JoinIndex> Build(const Table& right,
                                 const std::string& right_key);

  /// Row of `right` holding `key`, or -1 if absent. Null never matches.
  int64_t Find(const Value& key) const;

  const Table& right() const { return *right_; }
  const std::string& right_key() const { return right_key_; }
  size_t duplicate_keys() const { return duplicate_keys_; }

 private:
  static constexpr size_t kPartitions = 64;  // power of two

  JoinIndex() = default;

  const Table* right_ = nullptr;  // must outlive the index
  std::string right_key_;
  size_t duplicate_keys_ = 0;
  std::array<std::unordered_map<Value, size_t, ValueHash>, kPartitions> parts_;
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

/// Same join against a prebuilt index (the right side and key live in the
/// index). Row order and every byte of the output match the overload above.
Result<Table> HashJoin(const Table& left, const std::string& left_key,
                       const JoinIndex& index, const JoinOptions& options = {});

}  // namespace mesa

#endif  // MESA_QUERY_JOIN_H_
