#include "query/predicate.h"

#include <algorithm>

namespace mesa {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kIn:
      return "IN";
  }
  return "?";
}

namespace {

std::string QuoteLiteral(const Value& v) {
  if (!v.is_string()) return v.ToString();
  // SQL-style escaping: embedded single quotes double up, so the rendered
  // condition re-parses ("O'Neil" -> 'O''Neil').
  std::string out = "'";
  for (char c : v.string_value()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

// Comparison helper; fails on string-vs-number mismatches so type bugs
// surface instead of silently filtering everything out.
Result<int> CompareValues(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.AsDouble(), y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.is_string() && b.is_string()) {
    int c = a.string_value().compare(b.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.is_bool() && b.is_bool()) {
    int x = a.bool_value() ? 1 : 0, y = b.bool_value() ? 1 : 0;
    return x - y;
  }
  return Status::InvalidArgument("incomparable types: " +
                                 std::string(DataTypeName(a.type())) + " vs " +
                                 DataTypeName(b.type()));
}

// Evaluates one condition against one non-null cell. Fails if the
// comparison is type-incompatible.
Result<bool> EvalCell(const Condition& cond, const Value& cell) {
  if (cond.op == CompareOp::kIn) {
    for (const auto& v : cond.in_values) {
      if (cell == v) return true;
    }
    return false;
  }
  MESA_ASSIGN_OR_RETURN(int c, CompareValues(cell, cond.value));
  switch (cond.op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
    case CompareOp::kIn:
      break;
  }
  return Status::Internal("bad op");
}

// Clears mask[r] for every live row that fails `cond` (a null cell never
// satisfies it). A type error surfaces only when a live non-null row is
// compared, as it would in a row-by-row evaluation.
Status ApplyCondition(const Condition& cond, const Column& col,
                      std::vector<uint8_t>* mask) {
  const size_t n = mask->size();
  uint8_t* m = mask->data();
  if (col.type() == DataType::kString) {
    // Every cell is a dictionary entry: evaluate each entry once, then
    // scan the codes. All entries are strings, so a failing entry fails
    // with the same status any other would.
    const std::vector<std::string>& dict = col.dictionary();
    std::vector<int8_t> verdict(dict.size());  // 1 true, 0 false, -1 error
    Status error;
    for (size_t c = 0; c < dict.size(); ++c) {
      Result<bool> ok = EvalCell(cond, Value::String(dict[c]));
      if (!ok.ok()) {
        verdict[c] = -1;
        if (error.ok()) error = ok.status();
      } else {
        verdict[c] = *ok ? 1 : 0;
      }
    }
    const uint32_t* codes = col.code_data();
    for (size_t r = 0; r < n; ++r) {
      if (!m[r]) continue;
      if (col.IsNull(r)) {
        m[r] = 0;
        continue;
      }
      const int8_t v = verdict[codes[r]];
      if (v < 0) return error;
      if (v == 0) m[r] = 0;
    }
    return Status::OK();
  }
  for (size_t r = 0; r < n; ++r) {
    if (!m[r]) continue;
    if (col.IsNull(r)) {
      m[r] = 0;
      continue;
    }
    MESA_ASSIGN_OR_RETURN(bool ok, EvalCell(cond, col.GetValue(r)));
    if (!ok) m[r] = 0;
  }
  return Status::OK();
}

}  // namespace

std::string Condition::ToString() const {
  if (op == CompareOp::kIn) {
    std::string out = column + " IN (";
    for (size_t i = 0; i < in_values.size(); ++i) {
      if (i > 0) out += ", ";
      out += QuoteLiteral(in_values[i]);
    }
    out += ")";
    return out;
  }
  return column + " " + CompareOpName(op) + " " + QuoteLiteral(value);
}

bool operator==(const Condition& a, const Condition& b) {
  return a.column == b.column && a.op == b.op && a.value == b.value &&
         a.in_values == b.in_values;
}

bool Conjunction::Contains(const Conjunction& other) const {
  for (const auto& c : other.conditions_) {
    if (std::find(conditions_.begin(), conditions_.end(), c) ==
        conditions_.end()) {
      return false;
    }
  }
  return true;
}

Result<std::vector<uint8_t>> Conjunction::EvaluateMask(
    const Table& table) const {
  std::vector<uint8_t> mask(table.num_rows(), 1);
  for (const auto& cond : conditions_) {
    MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(cond.column));
    MESA_RETURN_IF_ERROR(ApplyCondition(cond, *col, &mask));
  }
  return mask;
}

Result<std::vector<size_t>> Conjunction::MatchingRows(
    const Table& table) const {
  MESA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask, EvaluateMask(table));
  std::vector<size_t> rows;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r]) rows.push_back(r);
  }
  return rows;
}

std::string Conjunction::ToString() const {
  if (conditions_.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < conditions_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conditions_[i].ToString();
  }
  return out;
}

}  // namespace mesa
