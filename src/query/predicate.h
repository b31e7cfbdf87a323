#ifndef MESA_QUERY_PREDICATE_H_
#define MESA_QUERY_PREDICATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace mesa {

/// Comparison operators supported in WHERE clauses.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIn,
};

const char* CompareOpName(CompareOp op);

/// A single comparison `column op literal` (or `column IN (v1, v2, ...)`).
/// Null cells never satisfy a condition (SQL three-valued logic collapsed to
/// false, which is what filtering needs).
struct Condition {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value value;                   // for binary ops
  std::vector<Value> in_values;  // for kIn

  /// "Country = 'Germany'" rendering.
  std::string ToString() const;

  friend bool operator==(const Condition& a, const Condition& b);
};

/// A conjunction of conditions — exactly the context class C from the paper
/// (Section 2.1): the WHERE clause of the supported aggregate queries, and
/// the thing Algorithm 2 refines. An empty conjunction accepts all rows.
class Conjunction {
 public:
  Conjunction() = default;
  explicit Conjunction(std::vector<Condition> conditions)
      : conditions_(std::move(conditions)) {}

  const std::vector<Condition>& conditions() const { return conditions_; }
  bool empty() const { return conditions_.empty(); }
  size_t size() const { return conditions_.size(); }

  void Add(Condition c) { conditions_.push_back(std::move(c)); }

  /// True if every condition of `other` appears in this conjunction (i.e.
  /// this is `other` or a refinement of it).
  bool Contains(const Conjunction& other) const;

  /// Evaluates all rows into a 0/1 mask. Each condition looks its column
  /// up once; a string column's condition is evaluated once per dictionary
  /// entry, not once per row.
  Result<std::vector<uint8_t>> EvaluateMask(const Table& table) const;

  /// Indices of matching rows.
  Result<std::vector<size_t>> MatchingRows(const Table& table) const;

  /// "Continent = 'Europe' AND Age > 30" rendering ("TRUE" when empty).
  std::string ToString() const;

  friend bool operator==(const Conjunction& a, const Conjunction& b) {
    return a.conditions_ == b.conditions_;
  }

 private:
  std::vector<Condition> conditions_;
};

}  // namespace mesa

#endif  // MESA_QUERY_PREDICATE_H_
