#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "missing/imputation.h"
#include "missing/ipw.h"
#include "missing/mask.h"
#include "missing/selection_bias.h"
#include "table/table_builder.h"
#include "one_shot_ipw.h"

namespace mesa {
namespace {

// Builds a table where `attr` depends on a latent and `outcome` depends on
// the same latent; missingness of attr can be random or outcome-driven.
Table MakeWorld(size_t n, bool biased_missing, double missing_rate,
                uint64_t seed = 99) {
  Rng rng(seed);
  TableBuilder b(Schema({{"group", DataType::kString},
                         {"attr", DataType::kDouble},
                         {"outcome", DataType::kDouble}}));
  for (size_t i = 0; i < n; ++i) {
    double latent = rng.NextGaussian();
    std::string group = latent > 0 ? "hi" : "lo";
    double attr = latent + rng.NextGaussian(0, 0.3);
    double outcome = 2.0 * latent + rng.NextGaussian(0, 0.5);
    bool missing = biased_missing
                       ? outcome > 1.0 && rng.NextBernoulli(missing_rate * 3)
                       : rng.NextBernoulli(missing_rate);
    MESA_CHECK(b.AppendRow({Value::String(group),
                            missing ? Value::Null() : Value::Double(attr),
                            Value::Double(outcome)})
                   .ok());
  }
  return *b.Finish();
}

// ------------------------------------------------------------------ mask

TEST(Mask, MissingnessIndicator) {
  Column c(DataType::kDouble);
  c.AppendDouble(1);
  c.AppendNull();
  c.AppendDouble(2);
  auto r = MissingnessIndicator(c);
  EXPECT_EQ(r, (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_NEAR(c.null_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(Mask, InjectRandomMissing) {
  Table t = MakeWorld(1000, false, 0.0);
  Rng rng(1);
  auto removed = InjectMissing(&t, "attr", 0.3, RemovalMode::kRandom, &rng);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 300u);
  EXPECT_NEAR((*t.ColumnByName("attr"))->null_fraction(), 0.3, 1e-12);
}

TEST(Mask, InjectTopValuesRemovesHighest) {
  Table t = MakeWorld(1000, false, 0.0);
  // Remember the max before removal.
  const Column* col = *t.ColumnByName("attr");
  double max_before = -1e300;
  for (size_t i = 0; i < col->size(); ++i) {
    max_before = std::max(max_before, col->DoubleAt(i));
  }
  Rng rng(1);
  ASSERT_TRUE(
      InjectMissing(&t, "attr", 0.2, RemovalMode::kTopValues, &rng).ok());
  col = *t.ColumnByName("attr");
  double max_after = -1e300;
  for (size_t i = 0; i < col->size(); ++i) {
    if (col->IsValid(i)) max_after = std::max(max_after, col->DoubleAt(i));
  }
  EXPECT_LT(max_after, max_before);
}

TEST(Mask, InjectIsIncrementalOverPresentValues) {
  Table t = MakeWorld(1000, false, 0.0);
  Rng rng(1);
  ASSERT_TRUE(InjectMissing(&t, "attr", 0.5, RemovalMode::kRandom, &rng).ok());
  ASSERT_TRUE(InjectMissing(&t, "attr", 0.5, RemovalMode::kRandom, &rng).ok());
  EXPECT_NEAR((*t.ColumnByName("attr"))->null_fraction(), 0.75, 1e-12);
}

TEST(Mask, InjectErrors) {
  Table t = MakeWorld(10, false, 0.0);
  Rng rng(1);
  EXPECT_FALSE(InjectMissing(&t, "attr", 1.5, RemovalMode::kRandom, &rng).ok());
  EXPECT_FALSE(
      InjectMissing(&t, "ghost", 0.5, RemovalMode::kRandom, &rng).ok());
  EXPECT_FALSE(
      InjectMissing(&t, "group", 0.5, RemovalMode::kTopValues, &rng).ok());
}

// -------------------------------------------------------- selection bias

TEST(SelectionBias, FullyObservedNeverBiased) {
  Table t = MakeWorld(2000, false, 0.0);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->biased);
  EXPECT_DOUBLE_EQ(r->missing_fraction, 0.0);
}

TEST(SelectionBias, RandomMissingNotBiased) {
  Table t = MakeWorld(4000, false, 0.3);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->biased);
}

TEST(SelectionBias, OutcomeDrivenMissingDetected) {
  Table t = MakeWorld(4000, true, 0.3);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->biased);
  EXPECT_GT(r->mi_with_outcome, 0.0);
  EXPECT_LT(r->p_value_outcome, 0.05);
}

// Entity-level (blockwise) missingness: the attribute is either fully
// observed or fully missing per group — the KG extraction pattern.
Table MakeBlockwiseWorld(size_t n, bool outcome_aligned, uint64_t seed) {
  Rng rng(seed);
  const size_t kGroups = 60;
  std::vector<double> latent(kGroups);
  std::vector<uint8_t> missing(kGroups);
  for (size_t g = 0; g < kGroups; ++g) latent[g] = rng.NextGaussian();
  if (outcome_aligned) {
    // Drop the attribute for the highest-outcome third of the groups.
    std::vector<size_t> order(kGroups);
    for (size_t g = 0; g < kGroups; ++g) order[g] = g;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return latent[a] > latent[b]; });
    for (size_t i = 0; i < kGroups / 3; ++i) missing[order[i]] = 1;
  } else {
    for (size_t g = 0; g < kGroups; ++g) {
      missing[g] = rng.NextBernoulli(1.0 / 3.0) ? 1 : 0;
    }
  }
  TableBuilder b(Schema({{"group", DataType::kString},
                         {"attr", DataType::kDouble},
                         {"outcome", DataType::kDouble}}));
  for (size_t i = 0; i < n; ++i) {
    size_t g = rng.NextBelow(kGroups);
    MESA_CHECK(b.AppendRow({Value::String("g" + std::to_string(g)),
                            missing[g] ? Value::Null()
                                       : Value::Double(latent[g]),
                            Value::Double(2.0 * latent[g] +
                                          rng.NextGaussian(0, 0.3))})
                   .ok());
  }
  return *b.Finish();
}

TEST(SelectionBias, BlockwiseOutcomeAlignedDetected) {
  Table t = MakeBlockwiseWorld(8000, /*outcome_aligned=*/true, 7);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->biased);
  // The block-level path reports no within-exposure dependence (R is a
  // function of the group there).
  EXPECT_DOUBLE_EQ(r->mi_given_exposure, 0.0);
}

TEST(SelectionBias, BlockwiseRandomNotDetected) {
  // Row-level tests would flag chance block alignment at 8000 rows; the
  // block-level test correctly sees ~60 exchangeable observations.
  Table t = MakeBlockwiseWorld(8000, /*outcome_aligned=*/false, 11);
  auto r = DetectSelectionBias(t, "attr", "outcome", "group");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->biased);
}

TEST(SelectionBias, MissingColumnErrors) {
  Table t = MakeWorld(100, false, 0.1);
  EXPECT_FALSE(DetectSelectionBias(t, "ghost", "outcome", "group").ok());
}

// ------------------------------------------------------------------- IPW

TEST(Ipw, FullyObservedGetsUnitWeights) {
  Table t = MakeWorld(500, false, 0.0);
  IpwOptions opts;
  opts.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", opts);
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(w->marginal_rate, 1.0);
  for (double x : w->weights) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(Ipw, MissingRowsGetZeroWeight) {
  Table t = MakeWorld(2000, false, 0.3);
  IpwOptions opts;
  opts.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", opts);
  ASSERT_TRUE(w.ok());
  const Column* attr = *t.ColumnByName("attr");
  for (size_t i = 0; i < attr->size(); ++i) {
    if (attr->IsNull(i)) {
      EXPECT_DOUBLE_EQ(w->weights[i], 0.0);
    } else {
      EXPECT_GT(w->weights[i], 0.0);
    }
  }
}

TEST(Ipw, BiasedMissingnessUpweightsUnderrepresented) {
  // High-outcome rows are preferentially dropped, so surviving high-outcome
  // rows must get above-average weights.
  Table t = MakeWorld(6000, true, 0.3);
  IpwOptions opts;
  opts.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", opts);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w->model_converged);
  const Column* attr = *t.ColumnByName("attr");
  const Column* outcome = *t.ColumnByName("outcome");
  double hi_sum = 0, hi_n = 0, lo_sum = 0, lo_n = 0;
  for (size_t i = 0; i < attr->size(); ++i) {
    if (attr->IsNull(i)) continue;
    if (outcome->DoubleAt(i) > 1.0) {
      hi_sum += w->weights[i];
      ++hi_n;
    } else {
      lo_sum += w->weights[i];
      ++lo_n;
    }
  }
  ASSERT_GT(hi_n, 0);
  ASSERT_GT(lo_n, 0);
  EXPECT_GT(hi_sum / hi_n, lo_sum / lo_n);
}

TEST(Ipw, RandomMissingnessWeightsNearUniform) {
  Table t = MakeWorld(6000, false, 0.3);
  IpwOptions opts;
  opts.covariates = {"outcome"};
  auto w = ComputeIpwWeights(t, "attr", opts);
  ASSERT_TRUE(w.ok());
  double sum = 0, sum_sq = 0, n = 0;
  for (double x : w->weights) {
    if (x > 0) {
      sum += x;
      sum_sq += x * x;
      ++n;
    }
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_LT(var, 0.02);
}

TEST(Ipw, CategoricalCovariateAccepted) {
  Table t = MakeWorld(1000, true, 0.3);
  IpwOptions opts;
  opts.covariates = {"group"};
  EXPECT_TRUE(ComputeIpwWeights(t, "attr", opts).ok());
}

TEST(Ipw, Errors) {
  Table t = MakeWorld(100, false, 0.1);
  IpwOptions no_cov;
  EXPECT_FALSE(ComputeIpwWeights(t, "attr", no_cov).ok());
  IpwOptions opts;
  opts.covariates = {"outcome"};
  EXPECT_FALSE(ComputeIpwWeights(t, "ghost", opts).ok());
}

// ------------------------------------------------------------- imputation

TEST(Imputation, MeanFillsNumeric) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  for (double v : {1.0, 3.0}) MESA_CHECK(b.AppendRow({Value::Double(v)}).ok());
  MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  auto n = ImputeColumn(&t, "x", ImputationStrategy::kMeanOrMode);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_DOUBLE_EQ((*t.ColumnByName("x"))->DoubleAt(2), 2.0);
  EXPECT_EQ((*t.ColumnByName("x"))->null_count(), 0u);
}

TEST(Imputation, ModeFillsCategorical) {
  TableBuilder b(Schema({{"s", DataType::kString}}));
  for (const char* v : {"a", "b", "b"}) {
    MESA_CHECK(b.AppendRow({Value::String(v)}).ok());
  }
  MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  ASSERT_TRUE(ImputeColumn(&t, "s", ImputationStrategy::kMeanOrMode).ok());
  EXPECT_EQ((*t.ColumnByName("s"))->StringAt(3), "b");
}

TEST(Imputation, HotDeckDrawsObservedValues) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  for (double v : {1.0, 2.0}) MESA_CHECK(b.AppendRow({Value::Double(v)}).ok());
  for (int i = 0; i < 10; ++i) MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  Rng rng(5);
  ASSERT_TRUE(ImputeColumn(&t, "x", ImputationStrategy::kHotDeck, &rng).ok());
  const Column* c = *t.ColumnByName("x");
  for (size_t i = 0; i < c->size(); ++i) {
    double v = c->DoubleAt(i);
    EXPECT_TRUE(v == 1.0 || v == 2.0);
  }
}

TEST(Imputation, IntColumnGetsIntMean) {
  TableBuilder b(Schema({{"x", DataType::kInt64}}));
  for (int64_t v : {1, 4}) MESA_CHECK(b.AppendRow({Value::Int(v)}).ok());
  MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  ASSERT_TRUE(ImputeColumn(&t, "x", ImputationStrategy::kMeanOrMode).ok());
  EXPECT_EQ((*t.ColumnByName("x"))->IntAt(2), 2);  // trunc(2.5)
}

TEST(Imputation, NoNullsIsNoOp) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  MESA_CHECK(b.AppendRow({Value::Double(1)}).ok());
  Table t = *b.Finish();
  auto n = ImputeColumn(&t, "x", ImputationStrategy::kMeanOrMode);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(Imputation, Errors) {
  TableBuilder b(Schema({{"x", DataType::kDouble}}));
  MESA_CHECK(b.AppendRow({Value::Null()}).ok());
  Table t = *b.Finish();
  // Fully null column.
  EXPECT_FALSE(ImputeColumn(&t, "x", ImputationStrategy::kMeanOrMode).ok());
  // Hot deck without RNG.
  TableBuilder b2(Schema({{"x", DataType::kDouble}}));
  MESA_CHECK(b2.AppendRow({Value::Double(1)}).ok());
  MESA_CHECK(b2.AppendRow({Value::Null()}).ok());
  Table t2 = *b2.Finish();
  EXPECT_FALSE(ImputeColumn(&t2, "x", ImputationStrategy::kHotDeck).ok());
}

}  // namespace
}  // namespace mesa
