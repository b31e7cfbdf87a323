// Second property/reference layer: statistical guarantees and textbook
// reference values that the estimator stack must honour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "core/subgroups.h"
#include "info/mutual_information.h"
#include "missing/ipw.h"
#include "missing/mask.h"
#include "query/sql_parser.h"
#include "stats/distributions.h"
#include "table/table_builder.h"
#include "one_shot_ipw.h"

namespace mesa {
namespace {

// ------------------------- IPW recovery: the Section 3.2 guarantee itself

// Under outcome-driven missingness, the complete-case MI estimate of
// I(attr; outcome) is biased; the IPW-weighted estimate must land closer
// to the full-data truth. This is the property Figure 3 visualises.
class IpwRecoveryProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(IpwRecoveryProperty, WeightedEstimateCloserToTruth) {
  Rng rng(2000 + GetParam());
  const size_t n = 20000;
  TableBuilder b(Schema({{"attr", DataType::kDouble},
                         {"outcome", DataType::kDouble}}));
  std::vector<double> attr_vals, outcome_vals;
  for (size_t i = 0; i < n; ++i) {
    double latent = rng.NextGaussian();
    double attr = latent + rng.NextGaussian(0, 0.5);
    double outcome = latent + rng.NextGaussian(0, 0.5);
    attr_vals.push_back(attr);
    outcome_vals.push_back(outcome);
    MESA_CHECK(
        b.AppendRow({Value::Double(attr), Value::Double(outcome)}).ok());
  }
  Table t = *b.Finish();

  // Truth: MI on the fully observed data.
  DiscretizerOptions d;
  Discretized da = DiscretizeVector(attr_vals, d);
  Discretized dy = DiscretizeVector(outcome_vals, d);
  CodedVariable full_a{da.codes, da.cardinality};
  CodedVariable full_y{dy.codes, dy.cardinality};
  double truth = MutualInformation(full_a, full_y);
  ASSERT_GT(truth, 0.2);

  // Outcome-driven removal: drop attr mostly where the outcome is high.
  Column* col = *t.MutableColumnByName("attr");
  Rng removal(999 + GetParam());
  for (size_t i = 0; i < n; ++i) {
    double p = outcome_vals[i] > 0.6 ? 0.8 : 0.1;
    if (removal.NextBernoulli(p)) col->SetNull(i);
  }

  // Re-code attr over complete cases only (codes carry -1 for missing).
  CodedVariable damaged_a = full_a;
  for (size_t i = 0; i < n; ++i) {
    if (col->IsNull(i)) damaged_a.codes[i] = -1;
  }
  double complete_case = MutualInformation(damaged_a, full_y);

  IpwOptions ipw;
  ipw.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", ipw);
  ASSERT_TRUE(w.ok());
  double weighted = MutualInformation(damaged_a, full_y, &w->weights);

  EXPECT_LT(std::fabs(weighted - truth), std::fabs(complete_case - truth))
      << "truth=" << truth << " cc=" << complete_case << " ipw=" << weighted;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpwRecoveryProperty,
                         testing::Range<uint64_t>(1, 7));

// ------------------------------------- data-processing inequality for MI

class DataProcessingProperty
    : public testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(DataProcessingProperty, CoarseningNeverGainsInformation) {
  auto [card, seed] = GetParam();
  Rng rng(seed * 101);
  const size_t n = 5000;
  std::vector<int32_t> xs, ys, coarse;
  for (size_t i = 0; i < n; ++i) {
    int32_t x = static_cast<int32_t>(rng.NextBelow(card));
    xs.push_back(x);
    // Y depends on X through a noisy channel.
    ys.push_back(rng.NextBernoulli(0.7)
                     ? x
                     : static_cast<int32_t>(rng.NextBelow(card)));
    coarse.push_back(x / 2);  // deterministic coarsening f(X)
  }
  CodedVariable x{xs, card};
  CodedVariable y{ys, card};
  CodedVariable fx{coarse, (card + 1) / 2};
  // I(f(X); Y) <= I(X; Y) up to estimator noise.
  EXPECT_LE(MutualInformation(fx, y), MutualInformation(x, y) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DataProcessingProperty,
    testing::Combine(testing::Values(4, 8, 12), testing::Values(1u, 2u, 3u)));

// -------------------------------------------------- parser round-tripping

class ParserRoundTripProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(ParserRoundTripProperty, ToSqlReparsesToSameSpec) {
  Rng rng(GetParam() * 7 + 3);
  const char* cols[] = {"Country", "City", "Salary", "Delay", "Age", "Score"};
  const char* values[] = {"Europe", "Asia", "x y", "O'Neil"};
  QuerySpec q;
  q.exposure = cols[rng.NextBelow(2)];
  if (rng.NextBernoulli(0.4)) {
    q.secondary_exposures.push_back(q.exposure == "Country" ? "City"
                                                            : "Country");
  }
  q.outcome = cols[2 + rng.NextBelow(4)];
  q.aggregate = static_cast<AggregateFunction>(rng.NextBelow(5));
  size_t conds = rng.NextBelow(3);
  for (size_t i = 0; i < conds; ++i) {
    Condition c;
    c.column = std::string("attr") + std::to_string(i);
    switch (rng.NextBelow(3)) {
      case 0:
        c.op = CompareOp::kEq;
        c.value = Value::String(values[rng.NextBelow(4)]);
        break;
      case 1:
        c.op = CompareOp::kGe;
        c.value = Value::Int(rng.NextInt(-5, 100));
        break;
      default:
        c.op = CompareOp::kIn;
        c.in_values = {Value::String("a"), Value::Int(3)};
        break;
    }
    q.context.Add(std::move(c));
  }
  auto reparsed = ParseQuery(q.ToSql());
  ASSERT_TRUE(reparsed.ok()) << q.ToSql() << " -> "
                             << reparsed.status().ToString();
  EXPECT_EQ(reparsed->exposure, q.exposure);
  EXPECT_EQ(reparsed->secondary_exposures, q.secondary_exposures);
  EXPECT_EQ(reparsed->outcome, q.outcome);
  EXPECT_EQ(reparsed->aggregate, q.aggregate);
  EXPECT_EQ(reparsed->context.ToString(), q.context.ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTripProperty,
                         testing::Range<uint64_t>(1, 21));

// ------------------------------------------- distribution reference table

struct TQuantileCase {
  double df;
  double t975;  // 97.5th percentile
};

class StudentTReference : public testing::TestWithParam<TQuantileCase> {};

TEST_P(StudentTReference, MatchesTextbookQuantiles) {
  const TQuantileCase& c = GetParam();
  EXPECT_NEAR(StudentTPValueTwoSided(c.t975, c.df), 0.05, 3e-3)
      << "df=" << c.df;
}

INSTANTIATE_TEST_SUITE_P(Table, StudentTReference,
                         testing::Values(TQuantileCase{1, 12.706},
                                         TQuantileCase{2, 4.303},
                                         TQuantileCase{5, 2.571},
                                         TQuantileCase{10, 2.228},
                                         TQuantileCase{30, 2.042},
                                         TQuantileCase{120, 1.980}));

struct Chi2Case {
  double df;
  double x95;  // 95th percentile
};

class ChiSquaredReference : public testing::TestWithParam<Chi2Case> {};

TEST_P(ChiSquaredReference, MatchesTextbookQuantiles) {
  const Chi2Case& c = GetParam();
  EXPECT_NEAR(ChiSquaredSf(c.x95, c.df), 0.05, 2e-3) << "df=" << c.df;
}

INSTANTIATE_TEST_SUITE_P(Table, ChiSquaredReference,
                         testing::Values(Chi2Case{1, 3.841},
                                         Chi2Case{2, 5.991},
                                         Chi2Case{5, 11.070},
                                         Chi2Case{10, 18.307},
                                         Chi2Case{20, 31.410},
                                         Chi2Case{50, 67.505}));

// ----------------------------------------- subgroup threshold monotonicity

TEST(SubgroupMonotonicity, HigherThresholdYieldsSubsetOfGroups) {
  Rng rng(77);
  const size_t kGroups = 40;
  std::vector<double> conf(kGroups), hidden(kGroups);
  for (auto& v : conf) v = rng.NextGaussian();
  for (auto& v : hidden) v = rng.NextGaussian();
  TableBuilder b(Schema({{"g", DataType::kString},
                         {"region", DataType::kString},
                         {"conf", DataType::kDouble},
                         {"o", DataType::kDouble}}));
  for (int i = 0; i < 8000; ++i) {
    size_t g = rng.NextBelow(kGroups);
    std::string region = "R" + std::to_string(g % 4);
    double o = (g % 4 == 0 ? 3.0 * hidden[g] : 3.0 * conf[g]) +
               rng.NextGaussian(0, 0.3);
    MESA_CHECK(b.AppendRow({Value::String("g" + std::to_string(g)),
                            Value::String(region), Value::Double(conf[g]),
                            Value::Double(o)})
                   .ok());
  }
  Table t = *b.Finish();
  QuerySpec q;
  q.exposure = "g";
  q.outcome = "o";
  SubgroupOptions lo, hi;
  lo.top_k = hi.top_k = 10;
  lo.threshold = 0.05;
  hi.threshold = 0.5;
  lo.refinement_attributes = hi.refinement_attributes = {"region"};
  auto groups_lo = FindUnexplainedSubgroups(t, q, {"conf"}, lo);
  auto groups_hi = FindUnexplainedSubgroups(t, q, {"conf"}, hi);
  ASSERT_TRUE(groups_lo.ok() && groups_hi.ok());
  EXPECT_GE(groups_lo->size(), groups_hi->size());
  // Every high-threshold group also qualifies at the low threshold.
  for (const auto& g_hi : *groups_hi) {
    bool found = false;
    for (const auto& g_lo : *groups_lo) {
      if (g_lo.refinement.ToString() == g_hi.refinement.ToString()) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << g_hi.refinement.ToString();
  }
}

}  // namespace
}  // namespace mesa
