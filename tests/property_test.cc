// Cross-module property tests: invariants that must hold for *every*
// randomly generated input, swept over seeds/shapes with TEST_P.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "core/mcimr.h"
#include "core/pruning.h"
#include "core/responsibility.h"
#include "query/join.h"
#include "stats/discretizer.h"
#include "table/csv.h"
#include "table/table_builder.h"

namespace mesa {
namespace {

// Random table with mixed column types, some nulls.
Table RandomTable(Rng* rng, size_t rows) {
  TableBuilder b(Schema({{"key", DataType::kString},
                         {"num", DataType::kDouble},
                         {"cnt", DataType::kInt64},
                         {"flag", DataType::kBool},
                         {"text", DataType::kString}}));
  const char* texts[] = {"alpha", "beta, quoted", "line\nbreak", "q\"uote",
                         "plain"};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.push_back(Value::String("k" + std::to_string(rng->NextBelow(8))));
    row.push_back(rng->NextBernoulli(0.1)
                      ? Value::Null()
                      : Value::Double(rng->NextGaussian(0, 10)));
    row.push_back(Value::Int(rng->NextInt(-50, 50)));
    row.push_back(Value::Bool(rng->NextBernoulli(0.5)));
    row.push_back(rng->NextBernoulli(0.15)
                      ? Value::Null()
                      : Value::String(texts[rng->NextBelow(5)]));
    MESA_CHECK(b.AppendRow(row).ok());
  }
  return *b.Finish();
}

// ------------------------------------------------------ CSV round trips

class CsvRoundTripProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripProperty, RandomTablesSurvive) {
  Rng rng(GetParam());
  Table t = RandomTable(&rng, 40 + rng.NextBelow(60));
  std::string csv = WriteCsvString(t);
  auto back = ReadCsvString(csv);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), t.num_rows());
  ASSERT_EQ(back->num_columns(), t.num_columns());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      Value orig = t.column(c).GetValue(r);
      Value got = back->column(c).GetValue(r);
      if (orig.is_double()) {
        // %.6g rendering bounds the round-trip precision.
        if (!got.is_null()) {
          EXPECT_NEAR(got.AsDouble(), orig.AsDouble(),
                      1e-4 * (1.0 + std::fabs(orig.AsDouble())));
        }
      } else {
        EXPECT_EQ(got, orig) << "row " << r << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripProperty,
                         testing::Range<uint64_t>(1, 9));

// ------------------------------------------------------- join invariants

class JoinProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(JoinProperty, LeftJoinPreservesLeftRows) {
  Rng rng(GetParam() * 17);
  Table left = RandomTable(&rng, 150);
  TableBuilder rb(Schema({{"key", DataType::kString},
                          {"extra", DataType::kDouble}}));
  for (int i = 0; i < 5; ++i) {
    MESA_CHECK(rb.AppendRow({Value::String("k" + std::to_string(i)),
                             Value::Double(static_cast<double>(i))})
                   .ok());
  }
  Table right = *rb.Finish();
  auto joined = HashJoin(left, "key", right, "key");
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), left.num_rows());
  // Every matched row carries the right value; unmatched rows carry null.
  const Column* keys = *joined->ColumnByName("key");
  const Column* extra = *joined->ColumnByName("extra");
  for (size_t r = 0; r < joined->num_rows(); ++r) {
    const std::string& k = keys->StringAt(r);
    int idx = k[1] - '0';
    if (idx < 5) {
      ASSERT_TRUE(extra->IsValid(r));
      EXPECT_DOUBLE_EQ(extra->DoubleAt(r), static_cast<double>(idx));
    } else {
      EXPECT_TRUE(extra->IsNull(r));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinProperty, testing::Range<uint64_t>(1, 6));

// --------------------------------------------------- discretizer sweeps

class DiscretizerProperty
    : public testing::TestWithParam<std::tuple<int, size_t, uint64_t>> {};

TEST_P(DiscretizerProperty, CodesAlwaysInRangeAndOrderPreserving) {
  auto [strategy, bins, seed] = GetParam();
  Rng rng(seed);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.NextGaussian(0, 3));
  DiscretizerOptions opts;
  opts.strategy = static_cast<BinningStrategy>(strategy);
  opts.num_bins = bins;
  opts.categorical_threshold = 5;
  Discretized d = DiscretizeVector(v, opts);
  ASSERT_GT(d.cardinality, 0);
  EXPECT_LE(d.cardinality, static_cast<int32_t>(bins));
  for (int32_t c : d.codes) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, d.cardinality);
  }
  // Monotone: a larger value never gets a smaller bin code.
  for (size_t i = 0; i < v.size(); ++i) {
    for (size_t j = i + 1; j < std::min(v.size(), i + 20); ++j) {
      if (v[i] < v[j]) {
        EXPECT_LE(d.codes[i], d.codes[j]);
      } else if (v[i] > v[j]) {
        EXPECT_GE(d.codes[i], d.codes[j]);
      }
    }
  }
  EXPECT_EQ(d.labels.size(), static_cast<size_t>(d.cardinality));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DiscretizerProperty,
    testing::Combine(testing::Values(0, 1), testing::Values(2u, 5u, 12u),
                     testing::Values(3u, 9u)));

// ---------------------------------------------------- MCIMR invariants

struct McimrWorld {
  Table table;
  QuerySpec query;
};

McimrWorld RandomConfoundedWorld(uint64_t seed) {
  Rng rng(seed);
  const size_t groups = 40 + rng.NextBelow(80);
  std::vector<double> u(groups), v(groups), noise(groups);
  for (size_t g = 0; g < groups; ++g) {
    u[g] = rng.NextGaussian();
    v[g] = rng.NextGaussian();
    noise[g] = rng.NextGaussian();
  }
  TableBuilder b(Schema({{"g", DataType::kString},
                         {"o", DataType::kDouble},
                         {"c1", DataType::kDouble},
                         {"c2", DataType::kDouble},
                         {"junk", DataType::kDouble}}));
  size_t rows = 3000 + rng.NextBelow(3000);
  double w1 = rng.NextUniform(1.0, 4.0);
  double w2 = rng.NextUniform(0.5, 3.0);
  for (size_t i = 0; i < rows; ++i) {
    size_t g = rng.NextBelow(groups);
    double y = w1 * u[g] + w2 * v[g] + rng.NextGaussian(0, 0.5);
    MESA_CHECK(b.AppendRow({Value::String("g" + std::to_string(g)),
                            Value::Double(y), Value::Double(u[g]),
                            Value::Double(v[g]), Value::Double(noise[g])})
                   .ok());
  }
  McimrWorld w;
  w.table = *b.Finish();
  w.query.exposure = "g";
  w.query.outcome = "o";
  return w;
}

class McimrProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(McimrProperty, StructuralInvariantsHoldOnRandomWorlds) {
  McimrWorld w = RandomConfoundedWorld(1000 + GetParam());
  auto qa = QueryAnalysis::Prepare(w.table, w.query, {"c1", "c2", "junk"});
  ASSERT_TRUE(qa.ok());
  auto kept = OnlinePrune(*qa).kept_indices;
  McimrOptions opts;
  opts.max_size = 3;
  Explanation ex = RunMcimr(*qa, kept, opts);

  // Size bound and no duplicates.
  EXPECT_LE(ex.attribute_names.size(), opts.max_size);
  for (size_t i = 0; i < ex.attribute_indices.size(); ++i) {
    for (size_t j = i + 1; j < ex.attribute_indices.size(); ++j) {
      EXPECT_NE(ex.attribute_indices[i], ex.attribute_indices[j]);
    }
  }
  // Explanation never includes the query attributes.
  for (const auto& n : ex.attribute_names) {
    EXPECT_NE(n, "g");
    EXPECT_NE(n, "o");
  }
  // Scores are consistent: final <= base; trace strictly decreasing and
  // ends at final.
  EXPECT_LE(ex.final_cmi, ex.base_cmi + 1e-9);
  double prev = ex.base_cmi;
  for (const auto& step : ex.trace) {
    EXPECT_LT(step.cmi_after, prev);
    prev = step.cmi_after;
  }
  if (!ex.trace.empty()) {
    EXPECT_DOUBLE_EQ(ex.trace.back().cmi_after, ex.final_cmi);
  }
  // The true confounders dominate: c1 is picked first whenever anything is.
  if (!ex.attribute_names.empty()) {
    EXPECT_TRUE(ex.attribute_names[0] == "c1" ||
                ex.attribute_names[0] == "c2")
        << ex.ToString();
  }
  // Determinism: same inputs, same output.
  Explanation again = RunMcimr(*qa, kept, opts);
  EXPECT_EQ(again.attribute_names, ex.attribute_names);
}

TEST_P(McimrProperty, ResponsibilitiesOfFoundExplanationAreNormalised) {
  McimrWorld w = RandomConfoundedWorld(5000 + GetParam());
  auto qa = QueryAnalysis::Prepare(w.table, w.query, {"c1", "c2", "junk"});
  ASSERT_TRUE(qa.ok());
  Explanation ex = RunMcimr(*qa, OnlinePrune(*qa).kept_indices);
  auto resp = ComputeResponsibilities(*qa, ex.attribute_indices);
  ASSERT_EQ(resp.size(), ex.attribute_indices.size());
  if (resp.size() >= 2) {
    double sum = 0;
    for (const auto& r : resp) sum += r.responsibility;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  // Sorted descending.
  for (size_t i = 1; i < resp.size(); ++i) {
    EXPECT_GE(resp[i - 1].responsibility, resp[i].responsibility);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McimrProperty,
                         testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace mesa
