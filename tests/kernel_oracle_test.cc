// The warm per-request kernels against their earlier implementations, kept
// here as oracles: the per-row hash map of the identification guard and of
// CombinePair, the Value-keyed group encoder, the per-cell predicate
// evaluator, and the std::set / std::map numeric coders. Each rewrite must
// agree bitwise on seeded random inputs, edge cases included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/candidates.h"
#include "info/contingency.h"
#include "info/info_cache.h"
#include "query/group_by.h"
#include "query/predicate.h"
#include "stats/discretizer.h"
#include "table/table_builder.h"

namespace mesa {
namespace {

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// ------------------------------------------------------------- oracles

CodedVariable OracleCombinePair(const CodedVariable& a,
                                const CodedVariable& b) {
  CodedVariable out;
  out.codes.resize(a.codes.size());
  std::unordered_map<uint64_t, int32_t> dict;
  for (size_t i = 0; i < a.codes.size(); ++i) {
    if (a.codes[i] < 0 || b.codes[i] < 0) {
      out.codes[i] = -1;
      continue;
    }
    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(a.codes[i]))
                    << 32) |
                   static_cast<uint32_t>(b.codes[i]);
    auto [it, inserted] =
        dict.emplace(key, static_cast<int32_t>(dict.size()));
    (void)inserted;
    out.codes[i] = it->second;
  }
  out.cardinality = static_cast<int32_t>(dict.size());
  return out;
}

double OracleIdentificationFraction(const CodedVariable& z,
                                    const CodedVariable& t) {
  std::unordered_map<int32_t, std::pair<int32_t, size_t>> strata;
  size_t observed = 0;
  for (size_t r = 0; r < z.codes.size(); ++r) {
    if (z.codes[r] < 0 || t.codes[r] < 0) continue;
    ++observed;
    auto [sit, inserted] =
        strata.emplace(z.codes[r], std::make_pair(t.codes[r], size_t{1}));
    if (!inserted) {
      if (sit->second.first != t.codes[r]) sit->second.first = -2;
      ++sit->second.second;
    }
  }
  const bool low_card_exposure = t.cardinality <= 20;
  const double small_stratum = 0.05 * static_cast<double>(observed);
  size_t identified = 0;
  for (const auto& [code, st] : strata) {
    (void)code;
    if (st.first < 0) continue;
    if (low_card_exposure &&
        static_cast<double>(st.second) >= small_stratum) {
      continue;
    }
    identified += st.second;
  }
  return observed == 0 ? 1.0
                       : static_cast<double>(identified) /
                             static_cast<double>(observed);
}

std::vector<int32_t> OracleEncodeGroups(const Column& col,
                                        std::vector<Value>* values) {
  std::unordered_map<Value, int32_t, ValueHash> ids;
  std::vector<int32_t> codes(col.size(), -1);
  values->clear();
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) continue;
    Value v = col.GetValue(r);
    auto [it, inserted] = ids.emplace(v, static_cast<int32_t>(ids.size()));
    if (inserted) values->push_back(v);
    codes[r] = it->second;
  }
  return codes;
}

Result<int> OracleCompare(const Value& a, const Value& b) {
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

Result<bool> OracleEvalCondition(const Condition& cond, const Table& table,
                                 size_t row) {
  MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(cond.column));
  if (col->IsNull(row)) return false;
  Value cell = col->GetValue(row);
  if (cond.op == CompareOp::kIn) {
    for (const auto& v : cond.in_values) {
      if (cell == v) return true;
    }
    return false;
  }
  MESA_ASSIGN_OR_RETURN(int c, OracleCompare(cell, cond.value));
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

Result<std::vector<uint8_t>> OracleMask(const Conjunction& conj,
                                        const Table& table) {
  std::vector<uint8_t> mask(table.num_rows(), 1);
  for (const auto& cond : conj.conditions()) {
    MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(cond.column));
    (void)col;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (!mask[r]) continue;
      MESA_ASSIGN_OR_RETURN(bool ok, OracleEvalCondition(cond, table, r));
      if (!ok) mask[r] = 0;
    }
  }
  return mask;
}

std::string FormatRange(double lo, double hi) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "[%.4g, %.4g)", lo, hi);
  return buf;
}

std::string FormatValue(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

Discretized OracleBinNumeric(const std::vector<double>& values,
                             const std::vector<uint8_t>& valid,
                             const DiscretizerOptions& options) {
  Discretized out;
  std::vector<double> present;
  for (size_t i = 0; i < values.size(); ++i) {
    if (valid.empty() || valid[i]) present.push_back(values[i]);
  }
  if (present.empty()) {
    out.codes.assign(values.size(), -1);
    return out;
  }
  std::vector<double> edges;
  size_t k = std::max<size_t>(1, options.num_bins);
  if (options.strategy == BinningStrategy::kEqualWidth) {
    auto [mn_it, mx_it] = std::minmax_element(present.begin(), present.end());
    double mn = *mn_it, mx = *mx_it;
    if (mn == mx) {
      k = 1;
    } else {
      double width = (mx - mn) / static_cast<double>(k);
      for (size_t i = 1; i < k; ++i) edges.push_back(mn + width * i);
    }
    double lo = mn;
    for (size_t i = 0; i < k; ++i) {
      double hi = i + 1 < k ? edges[i] : mx;
      out.labels.push_back(FormatRange(lo, hi));
      lo = hi;
    }
  } else {
    std::sort(present.begin(), present.end());
    std::set<double> cuts;
    for (size_t i = 1; i < k; ++i) cuts.insert(present[i * present.size() / k]);
    cuts.erase(present.front());
    edges.assign(cuts.begin(), cuts.end());
    k = edges.size() + 1;
    double lo = present.front();
    for (size_t i = 0; i < k; ++i) {
      double hi = i < edges.size() ? edges[i] : present.back();
      out.labels.push_back(FormatRange(lo, hi));
      lo = hi;
    }
  }
  out.cardinality = static_cast<int32_t>(k);
  for (size_t i = 0; i < values.size(); ++i) {
    if (!valid.empty() && !valid[i]) {
      out.codes.push_back(-1);
      continue;
    }
    auto it = std::upper_bound(edges.begin(), edges.end(), values[i]);
    out.codes.push_back(static_cast<int32_t>(it - edges.begin()));
  }
  return out;
}

Discretized OracleDiscretizeVector(const std::vector<double>& values,
                                   const DiscretizerOptions& options) {
  std::set<double> distinct(values.begin(), values.end());
  if (distinct.size() <= options.categorical_threshold) {
    std::map<double, int32_t> codes;
    for (double v : distinct) {
      codes.emplace(v, static_cast<int32_t>(codes.size()));
    }
    Discretized out;
    out.cardinality = static_cast<int32_t>(codes.size());
    for (const auto& [v, c] : codes) {
      (void)c;
      out.labels.push_back(FormatValue(v));
    }
    for (double v : values) out.codes.push_back(codes.at(v));
    return out;
  }
  return OracleBinNumeric(values, {}, options);
}

// The numeric arm of the column coder.
Discretized OracleDiscretizeNumericColumn(const Column& col,
                                          const DiscretizerOptions& options) {
  const size_t n = col.size();
  std::set<double> distinct;
  for (size_t r = 0; r < n && distinct.size() <= options.categorical_threshold;
       ++r) {
    if (col.IsValid(r)) distinct.insert(col.NumericAt(r));
  }
  if (distinct.size() <= options.categorical_threshold) {
    std::map<double, int32_t> codes;
    for (size_t r = 0; r < n; ++r) {
      if (col.IsValid(r)) codes.emplace(col.NumericAt(r), 0);
    }
    Discretized out;
    int32_t next = 0;
    for (auto& [v, code] : codes) {
      code = next++;
      out.labels.push_back(FormatValue(v));
    }
    out.cardinality = next;
    out.codes.resize(n);
    for (size_t r = 0; r < n; ++r) {
      out.codes[r] =
          col.IsValid(r) ? codes.find(col.NumericAt(r))->second : -1;
    }
    return out;
  }
  std::vector<double> values(n, 0.0);
  std::vector<uint8_t> valid(n, 0);
  for (size_t r = 0; r < n; ++r) {
    if (col.IsValid(r)) {
      values[r] = col.NumericAt(r);
      valid[r] = 1;
    }
  }
  return OracleBinNumeric(values, valid, options);
}

void ExpectSameCodes(const CodedVariable& got, const CodedVariable& want,
                     const std::string& what) {
  EXPECT_EQ(got.cardinality, want.cardinality) << what;
  EXPECT_EQ(got.codes, want.codes) << what;
}

void ExpectSameDiscretized(const Discretized& got, const Discretized& want,
                           const std::string& what) {
  EXPECT_EQ(got.cardinality, want.cardinality) << what;
  EXPECT_EQ(got.codes, want.codes) << what;
  EXPECT_EQ(got.labels, want.labels) << what;
}

CodedVariable RandomCodes(Rng& rng, size_t n, int32_t cardinality,
                          double missing) {
  CodedVariable v;
  v.cardinality = cardinality;
  for (size_t i = 0; i < n; ++i) {
    v.codes.push_back(rng.NextBernoulli(missing)
                          ? -1
                          : static_cast<int32_t>(rng.NextBelow(
                                static_cast<uint64_t>(cardinality))));
  }
  return v;
}

// ----------------------------------------------------------- CombinePair

TEST(KernelOracle, CombinePairMatchesHashedOracle) {
  // n = 1000 puts the dense bound at 4 * 1000 + 4096 = 8096 slots.
  struct Shape {
    int32_t ka, kb;
  };
  const Shape shapes[] = {{1, 1},   {3, 7},    {50, 100}, {88, 92},
                          {89, 92}, {200, 100}, {5000, 3}, {2, 40000}};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (const Shape& s : shapes) {
      const double missing = seed % 2 == 0 ? 0.0 : 0.15;
      CodedVariable a = RandomCodes(rng, 1000, s.ka, missing);
      CodedVariable b = RandomCodes(rng, 1000, s.kb, missing);
      const std::string what = "seed " + std::to_string(seed) + " " +
                               std::to_string(s.ka) + "x" +
                               std::to_string(s.kb);
      ExpectSameCodes(CombinePair(a, b), OracleCombinePair(a, b), what);
      ExpectSameCodes(CombineAll({&a, &b, &a}, 1000),
                      OracleCombinePair(OracleCombinePair(a, b), a),
                      what + " chain");
    }
  }
  CodedVariable empty;
  ExpectSameCodes(CombinePair(empty, empty), OracleCombinePair(empty, empty),
                  "empty");
}

// ------------------------------------------------ IdentificationFraction

// A table whose exposure has `exposure_values` values and whose string
// attributes have 3, 12, 60 and 400 values (the last nullable).
Table IdentTable(uint64_t seed, size_t rows, size_t exposure_values) {
  Rng rng(seed);
  TableBuilder b(Schema({{"t", DataType::kString},
                         {"o", DataType::kDouble},
                         {"a3", DataType::kString},
                         {"a12", DataType::kString},
                         {"a60", DataType::kString},
                         {"a400", DataType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t t = rng.NextBelow(exposure_values);
    // a12 follows t half the time, so some strata are pure.
    const uint64_t a12 = rng.NextBernoulli(0.5) ? t % 12 : rng.NextBelow(12);
    MESA_CHECK(
        b.AppendRow(
             {Value::String("t" + std::to_string(t)),
              Value::Double(rng.NextGaussian() + static_cast<double>(t)),
              Value::String("x" + std::to_string(rng.NextBelow(3))),
              Value::String("y" + std::to_string(a12)),
              Value::String("z" + std::to_string(rng.NextBelow(60))),
              rng.NextBernoulli(0.1)
                  ? Value::Null()
                  : Value::String("w" + std::to_string(rng.NextBelow(400)))})
            .ok());
  }
  return *b.Finish();
}

TEST(KernelOracle, IdentificationFractionMatchesHashedStrata) {
  PrepareOptions options;
  options.handle_selection_bias = false;
  const std::vector<std::string> candidates = {"a3", "a12", "a60", "a400"};
  const std::vector<std::vector<size_t>> sets = {
      {0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {2, 3}, {0, 1, 2}, {0, 1, 2, 3}};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    // Low-cardinality (<= 20) and high-cardinality exposures.
    for (size_t exposure_values : {size_t{4}, size_t{50}}) {
      Table table = IdentTable(seed, 3000, exposure_values);
      QuerySpec query;
      query.exposure = "t";
      query.outcome = "o";
      auto qa = QueryAnalysis::Prepare(table, query, candidates, {}, options);
      ASSERT_TRUE(qa.ok()) << qa.status().ToString();
      for (const auto& set : sets) {
        const double got = qa->IdentificationFraction(set);
        const double want = OracleIdentificationFraction(
            qa->CombinedCode(set), qa->exposure());
        EXPECT_EQ(Bits(got), Bits(want))
            << "seed " << seed << " exposure values " << exposure_values
            << " set size " << set.size() << ": " << got << " vs " << want;
      }
    }
  }
}

TEST(KernelOracle, IdentificationFractionAtTheFivePercentExemptionEdge) {
  // 200 observed rows, so a stratum of 10 rows holds exactly 5%: a pure
  // one is exempt for a low-cardinality exposure; a pure one of 9 is not.
  TableBuilder b(Schema({{"t", DataType::kString},
                         {"o", DataType::kDouble},
                         {"e", DataType::kString}}));
  auto add = [&](const std::string& t, const std::string& e, int count) {
    for (int i = 0; i < count; ++i) {
      MESA_CHECK(b.AppendRow({Value::String(t),
                              Value::Double(static_cast<double>(i % 7)),
                              Value::String(e)})
                     .ok());
    }
  };
  add("t0", "pure10", 10);
  add("t1", "pure9", 9);
  for (int i = 0; i < 181; ++i) {
    add(i % 2 == 0 ? "t0" : "t1", "mixed" + std::to_string(i % 3), 1);
  }
  Table table = *b.Finish();
  QuerySpec query;
  query.exposure = "t";
  query.outcome = "o";
  PrepareOptions options;
  options.handle_selection_bias = false;
  auto qa = QueryAnalysis::Prepare(table, query, {"e"}, {}, options);
  ASSERT_TRUE(qa.ok());
  const double got = qa->IdentificationFraction({0});
  EXPECT_EQ(Bits(got), Bits(OracleIdentificationFraction(qa->CombinedCode({0}),
                                                         qa->exposure())));
  EXPECT_EQ(got, 9.0 / 200.0);
}

// ---------------------------------------------------------- EncodeGroups

TEST(KernelOracle, EncodeGroupsMatchesValueHashOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const size_t rows = 500 + rng.NextBelow(500);
    const uint64_t distinct = 1 + rng.NextBelow(60);
    Column s(DataType::kString);
    Column i(DataType::kInt64);
    Column d(DataType::kDouble);
    Column bl(DataType::kBool);
    for (size_t r = 0; r < rows; ++r) {
      if (rng.NextBernoulli(0.1)) {
        s.AppendNull();
      } else {
        const uint64_t k = rng.NextBelow(distinct);
        s.AppendString(k == 0 ? "" : "v" + std::to_string(k));
      }
      if (rng.NextBernoulli(0.1)) i.AppendNull();
      else i.AppendInt(static_cast<int64_t>(rng.NextBelow(distinct)));
      if (rng.NextBernoulli(0.1)) d.AppendNull();
      else d.AppendDouble(static_cast<double>(rng.NextBelow(distinct)) / 4);
      if (rng.NextBernoulli(0.1)) bl.AppendNull();
      else bl.AppendBool(rng.NextBernoulli(0.5));
    }
    // A null that keeps its old code, and a gather whose dictionary holds
    // entries no row uses.
    s.SetNull(rows / 2);
    std::vector<size_t> take;
    for (size_t r = 0; r < rows; r += 3) take.push_back(r);
    Column taken = s.Take(take);

    Schema schema({{"s", DataType::kString},
                   {"i", DataType::kInt64},
                   {"d", DataType::kDouble},
                   {"b", DataType::kBool}});
    Table table = *Table::Make(schema, {s, i, d, bl});
    Table gathered = *Table::Make(Schema({{"s", DataType::kString}}), {taken});
    for (const auto& [t, name] :
         std::vector<std::pair<const Table*, std::string>>{
             {&table, "s"}, {&table, "i"}, {&table, "d"}, {&table, "b"},
             {&gathered, "s"}}) {
      std::vector<Value> got_values, want_values;
      auto got = EncodeGroups(*t, name, &got_values);
      ASSERT_TRUE(got.ok());
      const std::vector<int32_t> want =
          OracleEncodeGroups(**t->ColumnByName(name), &want_values);
      EXPECT_EQ(*got, want) << "seed " << seed << " column " << name;
      EXPECT_EQ(got_values, want_values) << "seed " << seed << " " << name;
    }
  }
}

// ----------------------------------------------------------- EvaluateMask

TEST(KernelOracle, EvaluateMaskMatchesPerCellOracle) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const size_t rows = 300;
    TableBuilder b(Schema({{"s", DataType::kString},
                           {"i", DataType::kInt64},
                           {"d", DataType::kDouble},
                           {"b", DataType::kBool}}));
    for (size_t r = 0; r < rows; ++r) {
      auto maybe_null = [&](Value v) {
        return rng.NextBernoulli(0.1) ? Value::Null() : v;
      };
      MESA_CHECK(
          b.AppendRow(
               {maybe_null(Value::String("k" + std::to_string(
                                                   rng.NextBelow(12)))),
                maybe_null(Value::Int(static_cast<int64_t>(rng.NextBelow(9)) -
                                      4)),
                maybe_null(Value::Double(rng.NextGaussian())),
                maybe_null(Value::Bool(rng.NextBernoulli(0.5)))})
              .ok());
    }
    Table table = *b.Finish();

    // Literals of every type per column, so type errors are covered.
    auto literal = [&](const std::string& column) -> Value {
      switch (rng.NextBelow(6)) {
        case 0:
          return Value::Int(static_cast<int64_t>(rng.NextBelow(9)) - 4);
        case 1:
          return Value::Double(rng.NextGaussian());
        case 2:
          return Value::Bool(rng.NextBernoulli(0.5));
        case 3:
          return Value::String("k" + std::to_string(rng.NextBelow(14)));
        default:  // mostly a literal of the column's own type
          if (column == "s") {
            return Value::String("k" + std::to_string(rng.NextBelow(14)));
          }
          if (column == "b") return Value::Bool(rng.NextBernoulli(0.5));
          if (column == "i") return Value::Int(rng.NextInt(-5, 5));
          return Value::Double(rng.NextGaussian());
      }
    };
    const std::string columns[] = {"s", "i", "d", "b", "ghost"};
    const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                             CompareOp::kIn};
    for (int trial = 0; trial < 60; ++trial) {
      Conjunction conj;
      const uint64_t conditions = 1 + rng.NextBelow(3);
      for (uint64_t c = 0; c < conditions; ++c) {
        Condition cond;
        cond.column = columns[rng.NextBelow(rng.NextBernoulli(0.05) ? 5 : 4)];
        cond.op = ops[rng.NextBelow(7)];
        if (cond.op == CompareOp::kIn) {
          const uint64_t k = rng.NextBelow(4);
          for (uint64_t j = 0; j < k; ++j) {
            cond.in_values.push_back(literal(cond.column));
          }
        } else {
          cond.value = literal(cond.column);
        }
        conj.Add(std::move(cond));
      }
      auto got = conj.EvaluateMask(table);
      auto want = OracleMask(conj, table);
      const std::string what =
          "seed " + std::to_string(seed) + " " + conj.ToString();
      ASSERT_EQ(got.ok(), want.ok()) << what;
      if (got.ok()) {
        EXPECT_EQ(*got, *want) << what;
      } else {
        EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
      }
    }
  }
}

// ---------------------------------------------------- numeric coders

std::vector<double> RandomVector(Rng& rng, size_t n, size_t distinct) {
  std::vector<double> pool;
  for (size_t k = 0; k < distinct; ++k) {
    pool.push_back(std::round(rng.NextGaussian() * 1000.0) / 8.0);
  }
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(pool[rng.NextBelow(pool.size())]);
  }
  return out;
}

TEST(KernelOracle, DiscretizeVectorMatchesTreeOracle) {
  DiscretizerOptions freq;
  DiscretizerOptions width;
  width.strategy = BinningStrategy::kEqualWidth;
  std::vector<std::vector<double>> inputs = {
      {},
      {-0.0, 0.0, 1.0},
      {0.0, -0.0, 1.0},
      {2.0, -0.0, 0.0, -0.0, 3.0},
      {-0.0, -0.0},
      {5.0},
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const size_t threshold = freq.categorical_threshold;
    for (size_t distinct : {size_t{1}, size_t{3}, threshold, threshold + 1,
                            size_t{40}, size_t{400}}) {
      std::vector<double> v = RandomVector(rng, 50 + rng.NextBelow(400),
                                           distinct);
      // Signed zeros in both orders, in low- and high-cardinality inputs.
      if (seed % 2 == 0) {
        v.push_back(-0.0);
        v.push_back(0.0);
      } else {
        v.push_back(0.0);
        v.push_back(-0.0);
      }
      inputs.push_back(v);
    }
    std::vector<double> high;
    for (int i = 0; i < 300; ++i) high.push_back(rng.NextGaussian());
    high.insert(high.begin() + 17, seed % 2 == 0 ? -0.0 : 0.0);
    inputs.push_back(high);
  }
  for (size_t k = 0; k < inputs.size(); ++k) {
    for (const DiscretizerOptions* opts : {&freq, &width}) {
      ExpectSameDiscretized(DiscretizeVector(inputs[k], *opts),
                            OracleDiscretizeVector(inputs[k], *opts),
                            "input " + std::to_string(k));
    }
  }
  // The sign of the first zero in input order is the label's.
  EXPECT_EQ(DiscretizeVector({-0.0, 0.0, 1.0}).labels,
            (std::vector<std::string>{"-0", "1"}));
  EXPECT_EQ(DiscretizeVector({0.0, -0.0, 1.0}).labels,
            (std::vector<std::string>{"0", "1"}));
}

TEST(KernelOracle, NumericColumnCoderMatchesTreeOracle) {
  const bool cache_was_enabled = info_cache::Enabled();
  info_cache::SetEnabled(false);
  DiscretizerOptions freq;
  DiscretizerOptions width;
  width.strategy = BinningStrategy::kEqualWidth;
  const size_t threshold = freq.categorical_threshold;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    for (size_t distinct : {size_t{1}, size_t{4}, threshold, threshold + 1,
                            size_t{200}}) {
      std::vector<double> v = RandomVector(rng, 400, distinct);
      // Signed zeros, the negative one first at even seeds.
      v[5] = seed % 2 == 0 ? -0.0 : 0.0;
      v[9] = seed % 2 == 0 ? 0.0 : -0.0;
      std::vector<uint8_t> valid(v.size(), 1);
      for (size_t r = 0; r < v.size(); ++r) {
        if (rng.NextBernoulli(0.1)) {
          valid[r] = 0;
          v[r] = 0.0;
        }
      }
      std::vector<int64_t> ints;
      for (double x : v) ints.push_back(static_cast<int64_t>(x));
      const Column doubles = Column::FromDoubles(v, valid);
      const Column int_col = Column::FromInts(ints, valid);
      std::vector<uint8_t> none(v.size(), 0);
      const Column all_null = Column::FromDoubles(
          std::vector<double>(v.size(), 0.0), none);
      for (const Column* col : {&doubles, &int_col, &all_null}) {
        Table table = *Table::Make(Schema({{"x", col->type()}}), {*col});
        for (const DiscretizerOptions* opts : {&freq, &width}) {
          auto got = DiscretizeColumn(table, "x", *opts);
          ASSERT_TRUE(got.ok());
          ExpectSameDiscretized(*got,
                                OracleDiscretizeNumericColumn(*col, *opts),
                                "seed " + std::to_string(seed) +
                                    " distinct " + std::to_string(distinct));
        }
      }
    }
  }
  info_cache::SetEnabled(cache_was_enabled);
}

}  // namespace
}  // namespace mesa
