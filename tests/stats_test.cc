#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "stats/discretizer.h"
#include "stats/distributions.h"
#include "stats/logistic.h"
#include "stats/ols.h"
#include "table/csv.h"

namespace mesa {
namespace {

// ---------------------------------------------------------- distributions

TEST(Distributions, LogGammaMatchesFactorials) {
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(0.5), std::log(std::sqrt(M_PI)), 1e-10);
}

TEST(Distributions, NormalCdf) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(NormalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(Distributions, IncompleteBetaBounds) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2, 3, 1.0), 1.0);
  // I_x(1,1) = x (uniform).
  EXPECT_NEAR(RegularizedIncompleteBeta(1, 1, 0.3), 0.3, 1e-10);
}

TEST(Distributions, StudentTKnownQuantiles) {
  // t = 2.228 with 10 df is the 97.5th percentile.
  EXPECT_NEAR(StudentTCdf(2.228, 10), 0.975, 5e-4);
  EXPECT_NEAR(StudentTPValueTwoSided(2.228, 10), 0.05, 1e-3);
  EXPECT_NEAR(StudentTCdf(0.0, 5), 0.5, 1e-12);
  // Large df approximates the normal.
  EXPECT_NEAR(StudentTCdf(1.96, 100000), NormalCdf(1.96), 1e-4);
}

TEST(Distributions, ChiSquaredKnownValues) {
  // P(X >= 3.841 | df=1) = 0.05.
  EXPECT_NEAR(ChiSquaredSf(3.841, 1), 0.05, 5e-4);
  EXPECT_NEAR(ChiSquaredSf(5.991, 2), 0.05, 5e-4);
  EXPECT_DOUBLE_EQ(ChiSquaredSf(0.0, 3), 1.0);
}

TEST(Distributions, GammaPMonotone) {
  double prev = 0.0;
  for (double x = 0.1; x < 10.0; x += 0.5) {
    double p = RegularizedGammaP(2.5, x);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

// ----------------------------------------------------------- discretizer

TEST(Discretizer, CategoricalStrings) {
  // Second column keeps the all-empty record from reading as a blank line.
  Table t = *ReadCsvString("c,k\nb,1\na,1\nb,1\n,1\n");
  auto d = DiscretizeColumn(t, "c");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->cardinality, 2);
  // Sorted order: a=0, b=1.
  EXPECT_EQ(d->codes[0], 1);
  EXPECT_EQ(d->codes[1], 0);
  EXPECT_EQ(d->codes[2], 1);
  EXPECT_EQ(d->codes[3], -1);  // null
  EXPECT_EQ(d->labels[0], "a");
}

TEST(Discretizer, LowCardinalityNumericIsCategorical) {
  Table t = *ReadCsvString("x\n1\n2\n1\n2\n3\n");
  DiscretizerOptions opts;
  opts.categorical_threshold = 10;
  auto d = DiscretizeColumn(t, "x", opts);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->cardinality, 3);
}

TEST(Discretizer, EqualWidthBins) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  DiscretizerOptions opts;
  opts.strategy = BinningStrategy::kEqualWidth;
  opts.num_bins = 4;
  opts.categorical_threshold = 10;
  Discretized d = DiscretizeVector(v, opts);
  EXPECT_EQ(d.cardinality, 4);
  EXPECT_EQ(d.codes[0], 0);
  EXPECT_EQ(d.codes[99], 3);
  EXPECT_EQ(d.codes[50], 2);
}

TEST(Discretizer, EqualFrequencyBinsBalanced) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) v.push_back(rng.NextGaussian());
  DiscretizerOptions opts;
  opts.strategy = BinningStrategy::kEqualFrequency;
  opts.num_bins = 8;
  opts.categorical_threshold = 10;
  Discretized d = DiscretizeVector(v, opts);
  ASSERT_EQ(d.cardinality, 8);
  std::vector<int> counts(8, 0);
  for (int32_t c : d.codes) ++counts[c];
  for (int c : counts) EXPECT_NEAR(c, 1250, 200);
}

TEST(Discretizer, SkewedDataDoesNotCrash) {
  // Heavy duplication of one value: equal-frequency cut points collapse.
  std::vector<double> v(1000, 5.0);
  for (int i = 0; i < 50; ++i) v.push_back(100.0 + i);
  DiscretizerOptions opts;
  opts.num_bins = 8;
  opts.categorical_threshold = 10;
  Discretized d = DiscretizeVector(v, opts);
  EXPECT_GE(d.cardinality, 1);
  for (int32_t c : d.codes) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, d.cardinality);
  }
}

TEST(Discretizer, ConstantColumn) {
  std::vector<double> v(100, 7.0);
  DiscretizerOptions opts;
  opts.categorical_threshold = 0;  // force numeric path
  Discretized d = DiscretizeVector(v, opts);
  EXPECT_EQ(d.cardinality, 1);
}

TEST(Discretizer, NullsStayNegative) {
  Table t = *ReadCsvString("x,k\n1.5,1\n,1\n2.5,1\n");
  auto d = DiscretizeColumn(t, "x");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->codes[1], -1);
  EXPECT_GE(d->codes[0], 0);
}

TEST(Discretizer, NanDoubleIsNull) {
  // A NaN handed to the column is null, not coded like the smallest value.
  Schema schema;
  ASSERT_TRUE(schema.AddField({"x", DataType::kDouble}).ok());
  auto t = Table::Make(std::move(schema),
                       {Column::FromDoubles({1.5, std::nan(""), 2.5, 0.5})});
  ASSERT_TRUE(t.ok());
  auto d = DiscretizeColumn(*t, "x");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->codes, (std::vector<int32_t>{1, -1, 2, 0}));
  EXPECT_EQ(d->cardinality, 3);
}

TEST(Discretizer, MissingColumnFails) {
  Table t = *ReadCsvString("x\n1\n");
  EXPECT_FALSE(DiscretizeColumn(t, "nope").ok());
}

// ------------------------------------------------------------------- OLS

TEST(Ols, RecoversCoefficients) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    double a = rng.NextGaussian(), b = rng.NextGaussian();
    x.push_back({a, b});
    y.push_back(2.0 + 3.0 * a - 1.5 * b + rng.NextGaussian(0, 0.1));
  }
  auto fit = FitOls(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->coefficients[0], 2.0, 0.05);
  EXPECT_NEAR(fit->coefficients[1], 3.0, 0.05);
  EXPECT_NEAR(fit->coefficients[2], -1.5, 0.05);
  EXPECT_GT(fit->r_squared, 0.99);
  EXPECT_LT(fit->p_values[1], 1e-6);
  EXPECT_LT(fit->p_values[2], 1e-6);
}

TEST(Ols, IrrelevantFeatureHasHighPValue) {
  Rng rng(13);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double a = rng.NextGaussian(), junk = rng.NextGaussian();
    x.push_back({a, junk});
    y.push_back(a + rng.NextGaussian());
  }
  auto fit = FitOls(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit->p_values[2], 0.01);
}

TEST(Ols, Errors) {
  EXPECT_FALSE(FitOls({}, {}).ok());
  EXPECT_FALSE(FitOls({{1.0}, {2.0}}, {1.0}).ok());       // length mismatch
  EXPECT_FALSE(FitOls({{1.0}, {2.0}}, {1.0, 2.0}).ok());  // n <= p
}

TEST(Ols, CholeskySolveKnownSystem) {
  // A = [[4,2],[2,3]], rhs = [10, 9] -> x = [1.5, 2].
  std::vector<double> a = {4, 2, 2, 3};
  std::vector<double> rhs = {10, 9};
  ASSERT_TRUE(CholeskySolve(a, rhs, 2));
  EXPECT_NEAR(rhs[0], 1.5, 1e-12);
  EXPECT_NEAR(rhs[1], 2.0, 1e-12);
}

TEST(Ols, CholeskyRejectsIndefinite) {
  std::vector<double> a = {1, 2, 2, 1};  // eigenvalues 3, -1
  std::vector<double> rhs = {1, 1};
  EXPECT_FALSE(CholeskySolve(a, rhs, 2));
}

// -------------------------------------------------------------- logistic

TEST(Logistic, RecoversSeparation) {
  Rng rng(17);
  std::vector<double> x;  // one feature per row
  std::vector<uint8_t> y;
  for (int i = 0; i < 2000; ++i) {
    double a = rng.NextGaussian();
    double p = 1.0 / (1.0 + std::exp(-(0.5 + 2.0 * a)));
    x.push_back(a);
    y.push_back(rng.NextBernoulli(p) ? 1 : 0);
  }
  auto model = FitLogistic(x, 1, y);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->converged());
  EXPECT_NEAR(model->coefficients()[0], 0.5, 0.2);
  EXPECT_NEAR(model->coefficients()[1], 2.0, 0.3);
}

TEST(Logistic, PredictedProbabilitiesCalibrated) {
  Rng rng(19);
  std::vector<double> x;  // one feature per row
  std::vector<uint8_t> y;
  for (int i = 0; i < 4000; ++i) {
    double a = rng.NextUniform(-2, 2);
    double p = 1.0 / (1.0 + std::exp(-a));
    x.push_back(a);
    y.push_back(rng.NextBernoulli(p) ? 1 : 0);
  }
  auto model = FitLogistic(x, 1, y);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->PredictProbability({0.0}), 0.5, 0.05);
  EXPECT_GT(model->PredictProbability({2.0}), 0.8);
  EXPECT_LT(model->PredictProbability({-2.0}), 0.2);
}

TEST(Logistic, ImbalancedLabels) {
  Rng rng(23);
  std::vector<double> x;  // one feature per row
  std::vector<uint8_t> y;
  for (int i = 0; i < 3000; ++i) {
    x.push_back(rng.NextGaussian());
    y.push_back(rng.NextBernoulli(0.03) ? 1 : 0);
  }
  auto model = FitLogistic(x, 1, y);
  ASSERT_TRUE(model.ok());
  // Intercept near log(0.03/0.97) ~ -3.48; slope near 0.
  EXPECT_NEAR(model->coefficients()[0], -3.48, 0.4);
  EXPECT_NEAR(model->coefficients()[1], 0.0, 0.3);
}

TEST(Logistic, SeparableDataStaysFinite) {
  // Perfectly separable: the ridge must keep coefficients bounded.
  std::vector<double> x;  // one feature per row
  std::vector<uint8_t> y;
  for (int i = 0; i < 100; ++i) {
    double a = i < 50 ? -1.0 - i * 0.01 : 1.0 + i * 0.01;
    x.push_back(a);
    y.push_back(i < 50 ? 0 : 1);
  }
  auto model = FitLogistic(x, 1, y);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(std::isfinite(model->coefficients()[1]));
}

TEST(Logistic, Errors) {
  EXPECT_FALSE(FitLogistic({}, 0, {}).ok());
  EXPECT_FALSE(FitLogistic({1.0}, 1, {1, 0}).ok());
}

}  // namespace
}  // namespace mesa
