// Bit-identity tests for the morsel-driven parallel data plane: hash join,
// TakeRows, and per-value KG
// extraction must produce byte-identical outputs at 1, 2, and 8 threads,
// on both sides of the operators' parallel thresholds. Each is checked
// against an independent oracle written here: a first-occurrence join, a
// per-cell TakeRows check, and a naive serial TripleStore walk for
// extraction. Same pattern as parallel_test.cc; this binary is a TSan
// target alongside it (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "datagen/registry.h"
#include "kg/endpoint.h"
#include "kg/entity_linker.h"
#include "kg/extractor.h"
#include "kg/resilient_client.h"
#include "kg/triple_store.h"
#include "query/aggregate.h"
#include "query/join.h"
#include "table/table.h"

namespace mesa {
namespace {

// Restores the global pool when a test exits.
struct PoolGuard {
  ~PoolGuard() { SetNumThreads(1); }
};

constexpr size_t kThreadCounts[] = {1, 2, 8};

// Row counts on both sides of the operators' 4096-row parallel threshold.
constexpr size_t kRowCounts[] = {3000, 6000};

// A seeded random table big enough to cross the parallel thresholds:
//   k_str  string key, ~20 distinct values (nullable)
//   k_int  int key, ~12 distinct values (nullable)
//   x      double column (nullable)
//   payload extra double column (join payload / TakeRows coverage)
// `null_rate` also controls the null density of the keys, so the
// null-heavy configurations exercise the skip paths hard.
Table MakeRandomTable(uint64_t seed, size_t rows, double null_rate) {
  Rng rng(seed);
  Column k_str(DataType::kString);
  Column k_int(DataType::kInt64);
  Column x(DataType::kDouble);
  Column payload(DataType::kDouble);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(null_rate)) {
      k_str.AppendNull();
    } else {
      k_str.AppendString("key_" + std::to_string(rng.NextBelow(20)));
    }
    if (rng.NextBernoulli(null_rate)) {
      k_int.AppendNull();
    } else {
      k_int.AppendInt(static_cast<int64_t>(rng.NextBelow(12)));
    }
    if (rng.NextBernoulli(null_rate * 0.5)) {
      x.AppendNull();
    } else {
      x.AppendDouble(rng.NextGaussian(10.0, 3.0));
    }
    payload.AppendDouble(rng.NextUniform(-1.0, 1.0));
  }
  Schema schema;
  EXPECT_TRUE(schema.AddField({"k_str", DataType::kString}).ok());
  EXPECT_TRUE(schema.AddField({"k_int", DataType::kInt64}).ok());
  EXPECT_TRUE(schema.AddField({"x", DataType::kDouble}).ok());
  EXPECT_TRUE(schema.AddField({"payload", DataType::kDouble}).ok());
  auto t = Table::Make(std::move(schema),
                       {std::move(k_str), std::move(k_int), std::move(x),
                        std::move(payload)});
  EXPECT_TRUE(t.ok());
  return *t;
}

void ExpectTablesEqual(const Table& a, const Table& b,
                       const std::string& what) {
  ASSERT_EQ(a.schema().ToString(), b.schema().ToString()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_TRUE(a.column(c).GetValue(r) == b.column(c).GetValue(r))
          << what << " col " << a.schema().field(c).name << " row " << r;
    }
  }
}

// Naive join oracle: right key -> first right row holding it, probed left
// row by left row. Checks the schema and every output cell of `joined`,
// and that each output column fingerprints like one built by per-row
// appends (so null rows carry AppendNull's dead payload, "" for strings).
void ExpectJoinMatchesOracle(const Table& left, const std::string& left_key,
                             const Table& right, const std::string& right_key,
                             JoinType type, const Table& joined,
                             const std::string& what) {
  const Column* rkey = *right.ColumnByName(right_key);
  std::map<Value, size_t> first_row;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (!rkey->IsNull(r)) first_row.emplace(rkey->GetValue(r), r);
  }
  std::vector<size_t> right_cols;
  for (size_t c = 0; c < right.num_columns(); ++c) {
    if (right.schema().field(c).name != right_key) right_cols.push_back(c);
  }
  const size_t nl = left.num_columns();
  ASSERT_EQ(joined.num_columns(), nl + right_cols.size()) << what;
  auto same_field = [](const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  };
  for (size_t c = 0; c < nl; ++c) {
    ASSERT_TRUE(same_field(joined.schema().field(c), left.schema().field(c)))
        << what << " col " << c;
  }
  for (size_t k = 0; k < right_cols.size(); ++k) {
    ASSERT_TRUE(same_field(joined.schema().field(nl + k),
                           right.schema().field(right_cols[k])))
        << what << " col " << nl + k;
  }

  std::vector<Column> appended;
  for (size_t c = 0; c < joined.num_columns(); ++c) {
    appended.emplace_back(joined.schema().field(c).type);
  }
  const Column* lkey = *left.ColumnByName(left_key);
  size_t out = 0;
  for (size_t l = 0; l < left.num_rows(); ++l) {
    int64_t match = -1;
    if (!lkey->IsNull(l)) {
      auto it = first_row.find(lkey->GetValue(l));
      if (it != first_row.end()) match = static_cast<int64_t>(it->second);
    }
    if (match < 0 && type == JoinType::kInner) continue;
    ASSERT_LT(out, joined.num_rows()) << what;
    for (size_t c = 0; c < nl; ++c) {
      ASSERT_TRUE(joined.column(c).GetValue(out) == left.column(c).GetValue(l))
          << what << " left col " << c << " row " << out;
      ASSERT_TRUE(appended[c].Append(left.column(c).GetValue(l)).ok());
    }
    for (size_t k = 0; k < right_cols.size(); ++k) {
      const Value expected =
          match < 0 ? Value::Null()
                    : right.column(right_cols[k]).GetValue(
                          static_cast<size_t>(match));
      ASSERT_TRUE(joined.column(nl + k).GetValue(out) == expected)
          << what << " right col " << k << " row " << out;
      ASSERT_TRUE(appended[nl + k].Append(expected).ok());
    }
    ++out;
  }
  ASSERT_EQ(out, joined.num_rows()) << what;
  for (size_t c = 0; c < joined.num_columns(); ++c) {
    EXPECT_EQ(joined.column(c).ContentFingerprint(),
              appended[c].ContentFingerprint())
        << what << " col " << c;
  }
}

// ------------------------------------------------------------- hash join

// Right side: one row per key plus deliberate duplicates and null keys;
// the string payload has nulls and empty strings, and 5 keys dangle.
Table MakeRightTable(uint64_t seed) {
  Rng rng(seed);
  Column key(DataType::kString);
  Column attr(DataType::kDouble);
  Column label(DataType::kString);
  for (int rep = 0; rep < 2; ++rep) {  // second pass = duplicate keys
    for (int k = 0; k < 25; ++k) {     // 20 match the left pool, 5 dangle
      if (rep == 1 && k % 3 != 0) continue;
      key.AppendString("key_" + std::to_string(k));
      attr.AppendDouble(rng.NextGaussian());
      const std::string drawn = "label_" + std::to_string(rng.NextBelow(100));
      label.AppendString(k % 5 == 4 ? "" : drawn);
    }
    key.AppendNull();
    attr.AppendDouble(rng.NextGaussian());
    label.AppendNull();
  }
  Schema schema;
  EXPECT_TRUE(schema.AddField({"k_str", DataType::kString}).ok());
  EXPECT_TRUE(schema.AddField({"attr", DataType::kDouble}).ok());
  EXPECT_TRUE(schema.AddField({"label", DataType::kString}).ok());
  auto t = Table::Make(std::move(schema),
                       {std::move(key), std::move(attr), std::move(label)});
  EXPECT_TRUE(t.ok());
  return *t;
}

TEST(QueryParallel, HashJoinBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const double null_rate = (seed % 2 == 1) ? 0.4 : 0.05;
    Table right = MakeRightTable(seed + 100);
    for (size_t rows : kRowCounts) {
      Table left = MakeRandomTable(seed, rows, null_rate);
      for (JoinType type : {JoinType::kLeft, JoinType::kInner}) {
        JoinOptions options;
        options.type = type;
        for (size_t threads : kThreadCounts) {
          SetNumThreads(threads);
          auto joined = HashJoin(left, "k_str", right, "k_str", options);
          ASSERT_TRUE(joined.ok()) << joined.status().ToString();
          ExpectJoinMatchesOracle(
              left, "k_str", right, "k_str", type, *joined,
              "seed " + std::to_string(seed) + " rows " +
                  std::to_string(rows) + " threads " +
                  std::to_string(threads) + " type " +
                  (type == JoinType::kLeft ? "left" : "inner"));
        }
      }
    }
  }
}

TEST(QueryParallel, RepeatedJoinsOfOneRightSideMatchOracle) {
  PoolGuard guard;
  SetNumThreads(8);
  Table left_a = MakeRandomTable(3, 6000, 0.2);
  Table left_b = MakeRandomTable(4, 5000, 0.2);
  Table right = MakeRightTable(42);

  // The right side repeats keys, so first-occurrence resolution is tested.
  const Column& rkey = *(*right.ColumnByName("k_str"));
  EXPECT_LT(rkey.DistinctCountAtMost(right.num_rows()),
            right.num_rows() - rkey.null_count());

  for (const Table* left : {&left_a, &left_b}) {
    auto joined = HashJoin(*left, "k_str", right, "k_str");
    ASSERT_TRUE(joined.ok());
    ExpectJoinMatchesOracle(*left, "k_str", right, "k_str", JoinType::kLeft,
                            *joined, "repeated join");
  }
}

TEST(QueryParallel, TakeRowsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Table table = MakeRandomTable(11, 9000, 0.3);
  Rng rng(99);
  for (size_t count : {size_t{2000}, size_t{7000}}) {
    std::vector<size_t> rows;
    for (size_t i = 0; i < count; ++i) {
      rows.push_back(static_cast<size_t>(rng.NextBelow(table.num_rows())));
    }
    for (size_t threads : kThreadCounts) {
      SetNumThreads(threads);
      Table taken = table.TakeRows(rows);
      ASSERT_EQ(taken.schema().ToString(), table.schema().ToString());
      ASSERT_EQ(taken.num_rows(), rows.size());
      for (size_t c = 0; c < table.num_columns(); ++c) {
        for (size_t i = 0; i < rows.size(); ++i) {
          ASSERT_TRUE(taken.column(c).GetValue(i) ==
                      table.column(c).GetValue(rows[i]))
              << "take " << count << " threads " << threads << " col " << c
              << " row " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------------- extraction

void ExpectStatsEqual(const ExtractionStats& a, const ExtractionStats& b) {
  EXPECT_EQ(a.values_total, b.values_total);
  EXPECT_EQ(a.values_linked, b.values_linked);
  EXPECT_EQ(a.values_ambiguous, b.values_ambiguous);
  EXPECT_EQ(a.values_not_found, b.values_not_found);
  EXPECT_EQ(a.values_failed, b.values_failed);
  EXPECT_EQ(a.attributes_extracted, b.attributes_extracted);
  EXPECT_EQ(a.lookups_retried, b.lookups_retried);
}

// The extraction oracle: Section 3.1's universal relation built serially
// from its definition, with no product extraction code. Sorted distinct
// keys, EntityLinker::Link, a recursive PropertiesOf walk whose hop-n
// names join predicates with '_', a collapse of multi-valued attributes
// (numeric: the one-to-many aggregate; otherwise the lexicographically
// first rendering), then one row per key. An attribute is double when
// every collapsed value is numeric, else string.
struct OracleExtraction {
  Table table;
  ExtractionStats stats;
};

void OracleWalk(const TripleStore& store, EntityId entity,
                const std::string& prefix, size_t hops_left,
                std::map<std::string, std::vector<Value>>* props) {
  for (const Triple* t : store.PropertiesOf(entity)) {
    const std::string& pred = store.predicate_name(t->predicate);
    const std::string name = prefix.empty() ? pred : prefix + "_" + pred;
    if (!t->object.is_entity()) {
      (*props)[name].push_back(t->object.literal);
      continue;
    }
    (*props)[name].push_back(
        Value::String(store.entity(t->object.entity).label));
    if (hops_left > 1) {
      OracleWalk(store, t->object.entity, name, hops_left - 1, props);
    }
  }
}

Value OracleCollapse(const std::vector<Value>& values, AggregateFunction agg) {
  if (values.size() == 1) return values[0];
  std::vector<double> nums;
  std::vector<std::string> texts;
  for (const Value& v : values) {
    if (v.is_numeric()) nums.push_back(v.AsDouble());
    texts.push_back(v.ToString());
  }
  if (nums.size() < values.size()) {
    return Value::String(*std::min_element(texts.begin(), texts.end()));
  }
  Result<double> r = ComputeAggregate(agg, nums);
  return r.ok() ? Value::Double(*r) : Value::Null();
}

OracleExtraction ExtractOracle(const Table& table, const std::string& column,
                               const TripleStore& store,
                               const ExtractionOptions& options) {
  const Column* key_col = *table.ColumnByName(column);
  std::set<std::string> keys;
  for (size_t r = 0; r < key_col->size(); ++r) {
    if (key_col->IsValid(r)) keys.insert(key_col->StringAt(r));
  }
  OracleExtraction out;
  out.stats.values_total = keys.size();
  EntityLinker linker(&store, options.linker);
  std::vector<std::map<std::string, Value>> rows;
  std::map<std::string, bool> numeric;  // attribute -> all values numeric
  for (const std::string& key : keys) {
    std::map<std::string, Value> row;
    const LinkResult link = linker.Link(key);
    if (link.linked()) {
      ++out.stats.values_linked;
      std::map<std::string, std::vector<Value>> props;
      OracleWalk(store, *link.entity, "", options.hops, &props);
      for (const auto& [name, values] : props) {
        Value v = OracleCollapse(values, options.one_to_many_agg);
        if (v.is_null()) continue;
        auto it = numeric.emplace(name, true).first;
        it->second = it->second && v.is_numeric();
        row.emplace(name, std::move(v));
      }
    } else if (link.outcome == LinkOutcome::kAmbiguous) {
      ++out.stats.values_ambiguous;
    } else {
      ++out.stats.values_not_found;
    }
    rows.push_back(std::move(row));
  }
  out.stats.attributes_extracted = numeric.size();

  Schema schema;
  EXPECT_TRUE(schema.AddField({column, DataType::kString}).ok());
  std::vector<Column> cols;
  cols.emplace_back(DataType::kString);
  for (const auto& [name, is_numeric] : numeric) {
    const DataType type = is_numeric ? DataType::kDouble : DataType::kString;
    EXPECT_TRUE(schema.AddField({name, type}).ok());
    cols.emplace_back(type);
  }
  size_t r = 0;
  for (const std::string& key : keys) {
    cols[0].AppendString(key);
    size_t c = 1;
    for (const auto& [name, is_numeric] : numeric) {
      auto it = rows[r].find(name);
      if (it == rows[r].end()) {
        cols[c].AppendNull();
      } else if (is_numeric) {
        cols[c].AppendDouble(it->second.AsDouble());
      } else {
        cols[c].AppendString(it->second.ToString());
      }
      ++c;
    }
    ++r;
  }
  out.table = *Table::Make(std::move(schema), std::move(cols));
  return out;
}

// Extraction the way Mesa runs it: through a fault-free client.
void ExpectClientMatchesOracle(const Table& table, const std::string& column,
                               const TripleStore& store,
                               const ExtractionOptions& options,
                               const OracleExtraction& oracle,
                               const std::string& what) {
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    ResilientKgClient client(std::make_shared<LocalEndpoint>(&store));
    ExtractionStats stats;
    auto got = ExtractAttributes(table, column, &client, options, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTablesEqual(oracle.table, *got,
                      what + " threads " + std::to_string(threads));
    ExpectStatsEqual(oracle.stats, stats);
  }
}

TEST(QueryParallel, ExtractionBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  auto ds = MakeDataset(DatasetKind::kCovid, GenOptions{});
  ASSERT_TRUE(ds.ok());
  ExtractionOptions options;
  options.hops = 2;

  for (const std::string& column : {std::string("Country"),
                                    std::string("WHO_Region")}) {
    const OracleExtraction oracle =
        ExtractOracle(ds->table, column, *ds->kg, options);
    EXPECT_GT(oracle.stats.values_linked, 0u) << column;
    EXPECT_GT(oracle.stats.attributes_extracted, 0u) << column;
    ExpectClientMatchesOracle(ds->table, column, *ds->kg, options, oracle,
                              column);
  }
}

// ------------------------------------------- high-cardinality tails

// A single kept right-side column over a large probe: the Column::Take
// gather must parallelize inside the one column (the old per-column
// split had nothing to do here) and still match the oracle cell by cell.
TEST(QueryParallel, HashJoinLargeSingleColumnBitIdentical) {
  PoolGuard guard;
  Rng rng(555);
  Column lkey(DataType::kString);
  Column payload(DataType::kDouble);
  const size_t rows = 20000;
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(0.05)) {
      lkey.AppendNull();
    } else {
      lkey.AppendString("r_" + std::to_string(rng.NextBelow(3000)));
    }
    payload.AppendDouble(rng.NextUniform(-1.0, 1.0));
  }
  Schema lschema;
  ASSERT_TRUE(lschema.AddField({"k", DataType::kString}).ok());
  ASSERT_TRUE(lschema.AddField({"payload", DataType::kDouble}).ok());
  auto left =
      Table::Make(std::move(lschema), {std::move(lkey), std::move(payload)});
  ASSERT_TRUE(left.ok());

  Column rkey(DataType::kString);
  Column attr(DataType::kString);
  for (size_t k = 0; k < 2500; ++k) {  // 500 left keys dangle
    rkey.AppendString("r_" + std::to_string(k));
    if (k % 7 == 0) {
      attr.AppendNull();  // null payloads gather the empty string's code
    } else if (k % 7 == 3) {
      attr.AppendString("");  // a valid "" shares that code
    } else {
      attr.AppendString("attr_" + std::to_string(rng.NextBelow(50)));
    }
  }
  Schema rschema;
  ASSERT_TRUE(rschema.AddField({"k", DataType::kString}).ok());
  ASSERT_TRUE(rschema.AddField({"attr", DataType::kString}).ok());
  auto right =
      Table::Make(std::move(rschema), {std::move(rkey), std::move(attr)});
  ASSERT_TRUE(right.ok());

  for (JoinType type : {JoinType::kLeft, JoinType::kInner}) {
    JoinOptions options;
    options.type = type;
    for (size_t threads : kThreadCounts) {
      SetNumThreads(threads);
      auto joined = HashJoin(*left, "k", *right, "k", options);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      ExpectJoinMatchesOracle(
          *left, "k", *right, "k", type, *joined,
          "single-col join threads " + std::to_string(threads) +
              (type == JoinType::kLeft ? " left" : " inner"));
    }
  }
}

// A synthetic KG with ~1500 linkable entities: enough distinct key
// values to push AssembleSlots past its parallel threshold, with mixed
// outcomes (linked / not-found / null), multi-valued attributes and a
// type-inferred mixed attribute, all of which must match the oracle at
// any thread count.
TEST(QueryParallel, ExtractionHighCardinalityBitIdentical) {
  PoolGuard guard;
  TripleStore store;
  Rng rng(808);
  const size_t entities = 1500;
  for (size_t e = 0; e < entities; ++e) {
    auto id = store.AddEntity("ent_" + std::to_string(e), "Thing");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(
        store.AddLiteral(*id, "population", Value::Double(rng.NextGaussian()))
            .ok());
    if (e % 3 != 0) {
      ASSERT_TRUE(store
                      .AddLiteral(*id, "region",
                                  Value::String("reg_" +
                                                std::to_string(e % 11)))
                      .ok());
    }
    // Multi-valued predicates: every fifth entity carries two tags and
    // two sizes, which the one-to-many collapse must reduce exactly as
    // the oracle does (first tag in sort order, mean size).
    if (e % 5 == 0) {
      for (int k = 0; k < 2; ++k) {
        ASSERT_TRUE(store
                        .AddLiteral(*id, "tag",
                                    Value::String(
                                        "t" + std::to_string(rng.NextBelow(9))))
                        .ok());
        ASSERT_TRUE(
            store.AddLiteral(*id, "size", Value::Double(rng.NextUniform(0, 9)))
                .ok());
      }
    }
    // Mixed-type predicate: numeric for some entities, string for others
    // (the universal relation must infer kString deterministically).
    if (e % 2 == 0) {
      ASSERT_TRUE(
          store.AddLiteral(*id, "mixed", Value::Double(double(e))).ok());
    } else {
      ASSERT_TRUE(
          store.AddLiteral(*id, "mixed", Value::String("m" + std::to_string(e)))
              .ok());
    }
  }

  Column key(DataType::kString);
  for (size_t r = 0; r < 12000; ++r) {
    if (rng.NextBernoulli(0.03)) {
      key.AppendNull();
    } else if (rng.NextBernoulli(0.05)) {
      key.AppendString("missing_" + std::to_string(rng.NextBelow(100)));
    } else {
      key.AppendString("ent_" + std::to_string(rng.NextBelow(entities)));
    }
  }
  Schema schema;
  ASSERT_TRUE(schema.AddField({"key", DataType::kString}).ok());
  auto table = Table::Make(std::move(schema), {std::move(key)});
  ASSERT_TRUE(table.ok());

  ExtractionOptions options;
  const OracleExtraction oracle =
      ExtractOracle(*table, "key", store, options);
  EXPECT_GT(oracle.stats.values_linked, 1000u)
      << "dataset failed to cross the parallel-assembly threshold";
  EXPECT_GT(oracle.stats.values_not_found, 0u);
  ExpectClientMatchesOracle(*table, "key", store, options, oracle,
                            "wide extraction");
}

}  // namespace
}  // namespace mesa
