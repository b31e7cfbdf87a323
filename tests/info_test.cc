#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "info/contingency.h"
#include "info/entropy.h"
#include "info/independence.h"
#include "info/mutual_information.h"

namespace mesa {
namespace {

// Joint entropy H(X, Y): the entropy of the paired code.
double JointEntropy(const CodedVariable& x, const CodedVariable& y,
                    const std::vector<double>* weights,
                    const EntropyOptions& options) {
  return Entropy(CombinePair(x, y), weights, options);
}

// Interaction information I(X; Y; Z) = I(X;Y) - I(X;Y|Z), both terms over
// the rows where all three variables are observed. Positive means Z
// explains away part of the X-Y association (what a confounder does);
// negative means conditioning on Z *induces* association (the paper's
// Hobby example).
double InteractionInformation(const CodedVariable& x, const CodedVariable& y,
                              const CodedVariable& z) {
  const CodedVariable xyz = CombinePair(CombinePair(x, z), y);
  auto mask = [&](CodedVariable v) {
    for (size_t i = 0; i < v.codes.size(); ++i) {
      if (xyz.codes[i] < 0) v.codes[i] = -1;
    }
    return v;
  };
  const CodedVariable xm = mask(x);
  const CodedVariable ym = mask(y);
  return MutualInformation(xm, ym) -
         ConditionalMutualInformation(xm, ym, mask(z));
}

CodedVariable MakeVar(std::vector<int32_t> codes, int32_t card) {
  return CodedVariable{std::move(codes), card};
}

CodedVariable Constant(size_t n) {
  CodedVariable v;
  v.codes.assign(n, 0);
  v.cardinality = 1;
  return v;
}

// ------------------------------------------------------------ contingency

TEST(Contingency, CombinePairDenseCodes) {
  CodedVariable a = MakeVar({0, 0, 1, 1, -1}, 2);
  CodedVariable b = MakeVar({0, 1, 0, 1, 0}, 2);
  CodedVariable ab = CombinePair(a, b);
  EXPECT_EQ(ab.cardinality, 4);
  EXPECT_EQ(ab.codes[4], -1);  // missing propagates
  // Distinct pairs get distinct codes.
  EXPECT_NE(ab.codes[0], ab.codes[1]);
  EXPECT_NE(ab.codes[1], ab.codes[2]);
}

TEST(Contingency, CombinePairOnlyObservedCombos) {
  // Only 2 of 4 possible pairs occur -> cardinality 2, not 4.
  CodedVariable a = MakeVar({0, 1, 0, 1}, 2);
  CodedVariable b = MakeVar({0, 1, 0, 1}, 2);
  EXPECT_EQ(CombinePair(a, b).cardinality, 2);
}

TEST(Contingency, CombineAllEmptyIsConstant) {
  CodedVariable c = CombineAll({}, 5);
  EXPECT_EQ(c.cardinality, 1);
  EXPECT_EQ(c.codes.size(), 5u);
}

TEST(Contingency, WeightedCounts) {
  CodedVariable a = MakeVar({0, 1, 1, -1}, 2);
  double total = 0;
  auto counts = WeightedCounts(a, nullptr, &total);
  EXPECT_DOUBLE_EQ(counts[0], 1);
  EXPECT_DOUBLE_EQ(counts[1], 2);
  EXPECT_DOUBLE_EQ(total, 3);
  std::vector<double> w = {0.5, 2.0, 1.0, 99.0};
  counts = WeightedCounts(a, &w, &total);
  EXPECT_DOUBLE_EQ(counts[1], 3.0);
  EXPECT_DOUBLE_EQ(total, 3.5);  // missing row's weight ignored
}

// ---------------------------------------------------------------- entropy

TEST(Entropy, UniformBinary) {
  CodedVariable v = MakeVar({0, 1, 0, 1}, 2);
  EXPECT_NEAR(Entropy(v), 1.0, 1e-12);
}

TEST(Entropy, ConstantIsZero) {
  EXPECT_DOUBLE_EQ(Entropy(Constant(10)), 0.0);
}

TEST(Entropy, SkewedBinary) {
  CodedVariable v = MakeVar({0, 0, 0, 1}, 2);
  double expected = -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25));
  EXPECT_NEAR(Entropy(v), expected, 1e-12);
}

TEST(Entropy, WeightsChangeDistribution) {
  CodedVariable v = MakeVar({0, 1}, 2);
  std::vector<double> w = {3.0, 1.0};
  double expected = -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25));
  EXPECT_NEAR(Entropy(v, &w), expected, 1e-12);
}

TEST(Entropy, MissingRowsSkipped) {
  CodedVariable v = MakeVar({0, 1, -1, -1}, 2);
  EXPECT_NEAR(Entropy(v), 1.0, 1e-12);
}

TEST(Entropy, MillerMadowAddsCorrection) {
  CodedVariable v = MakeVar({0, 1, 0, 1}, 2);
  EntropyOptions mm;
  mm.miller_madow = true;
  double corrected = Entropy(v, nullptr, mm);
  EXPECT_GT(corrected, 1.0);
  EXPECT_NEAR(corrected, 1.0 + 1.0 / (8.0 * std::log(2.0)), 1e-12);
}

TEST(Entropy, ConditionalEntropyChainRule) {
  // H(X|Y) = H(X,Y) - H(Y), and determinism -> 0.
  CodedVariable x = MakeVar({0, 0, 1, 1}, 2);
  CodedVariable y = MakeVar({0, 1, 2, 3}, 4);  // y determines x
  EXPECT_NEAR(ConditionalEntropy(x, y), 0.0, 1e-12);
  EXPECT_NEAR(ConditionalEntropy(y, x), 1.0, 1e-12);
}

// ---------------------------------------------------- mutual information

TEST(MutualInformation, IdenticalVariables) {
  CodedVariable x = MakeVar({0, 1, 2, 0, 1, 2}, 3);
  EXPECT_NEAR(MutualInformation(x, x), std::log2(3.0), 1e-12);
}

TEST(MutualInformation, IndependentUniform) {
  // Full cross product, perfectly balanced -> MI = 0 exactly.
  std::vector<int32_t> a, b;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      a.push_back(i);
      b.push_back(j);
    }
  }
  EXPECT_NEAR(MutualInformation(MakeVar(a, 4), MakeVar(b, 4)), 0.0, 1e-12);
}

TEST(MutualInformation, NeverNegative) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int32_t> a, b;
    for (int i = 0; i < 50; ++i) {
      a.push_back(static_cast<int32_t>(rng.NextBelow(4)));
      b.push_back(static_cast<int32_t>(rng.NextBelow(4)));
    }
    EXPECT_GE(MutualInformation(MakeVar(a, 4), MakeVar(b, 4)), 0.0);
  }
}

TEST(Cmi, ReducesToMiOnTrivialConditioner) {
  Rng rng(37);
  std::vector<int32_t> a, b;
  for (int i = 0; i < 300; ++i) {
    int32_t v = static_cast<int32_t>(rng.NextBelow(3));
    a.push_back(v);
    b.push_back(rng.NextBernoulli(0.7) ? v : static_cast<int32_t>(rng.NextBelow(3)));
  }
  CodedVariable x = MakeVar(a, 3), y = MakeVar(b, 3);
  double mi = MutualInformation(x, y);
  double cmi = ConditionalMutualInformation(x, y, Constant(300));
  EXPECT_NEAR(mi, cmi, 1e-9);
}

TEST(Cmi, PerfectConfounderExplainsAway) {
  // X and Y are both deterministic functions of Z -> I(X;Y|Z) = 0.
  Rng rng(41);
  std::vector<int32_t> xs, ys, zs;
  for (int i = 0; i < 500; ++i) {
    int32_t z = static_cast<int32_t>(rng.NextBelow(4));
    zs.push_back(z);
    xs.push_back(z % 2);
    ys.push_back(z / 2);
  }
  CodedVariable x = MakeVar(xs, 2), y = MakeVar(ys, 2), z = MakeVar(zs, 4);
  EXPECT_GT(MutualInformation(x, y), -1e-12);
  EXPECT_NEAR(ConditionalMutualInformation(x, y, z), 0.0, 1e-12);
}

TEST(Cmi, ConditioningOnIrrelevantKeepsDependence) {
  Rng rng(43);
  std::vector<int32_t> xs, ys, zs;
  for (int i = 0; i < 5000; ++i) {
    int32_t x = static_cast<int32_t>(rng.NextBelow(2));
    xs.push_back(x);
    ys.push_back(rng.NextBernoulli(0.9) ? x : 1 - x);
    zs.push_back(static_cast<int32_t>(rng.NextBelow(2)));  // independent
  }
  CodedVariable x = MakeVar(xs, 2), y = MakeVar(ys, 2), z = MakeVar(zs, 2);
  double mi = MutualInformation(x, y);
  double cmi = ConditionalMutualInformation(x, y, z);
  EXPECT_NEAR(cmi, mi, 0.02);
  EXPECT_GT(cmi, 0.3);
}

TEST(Cmi, PackedAndGenericPathsAgree) {
  // Force the generic path with a huge declared cardinality and compare
  // against the packed fast path on identical data.
  Rng rng(47);
  std::vector<int32_t> xs, ys, zs;
  for (int i = 0; i < 400; ++i) {
    int32_t z = static_cast<int32_t>(rng.NextBelow(5));
    zs.push_back(z);
    xs.push_back((z + static_cast<int32_t>(rng.NextBelow(2))) % 4);
    ys.push_back((z + static_cast<int32_t>(rng.NextBelow(3))) % 4);
  }
  CodedVariable x = MakeVar(xs, 4), y = MakeVar(ys, 4), z = MakeVar(zs, 5);
  double fast = ConditionalMutualInformation(x, y, z);
  CodedVariable z_wide = z;
  z_wide.cardinality = 1 << 30;  // forces bx+by+bz > 64
  CodedVariable x_wide = x;
  x_wide.cardinality = 1 << 30;
  double generic = ConditionalMutualInformation(x_wide, y, z_wide);
  EXPECT_NEAR(fast, generic, 1e-9);
}

TEST(Cmi, WeightsRespected) {
  // Down-weighting the rows that carry the dependence kills the CMI.
  std::vector<int32_t> xs = {0, 0, 1, 1, 0, 1};
  std::vector<int32_t> ys = {0, 0, 1, 1, 1, 0};
  CodedVariable x = MakeVar(xs, 2), y = MakeVar(ys, 2);
  std::vector<double> keep_dependent = {1, 1, 1, 1, 0, 0};
  double with_w =
      ConditionalMutualInformation(x, y, Constant(6), &keep_dependent);
  EXPECT_NEAR(with_w, 1.0, 1e-9);  // rows 0-3 are perfectly dependent
  double without_w = ConditionalMutualInformation(x, y, Constant(6));
  EXPECT_LT(without_w, 0.5);
}

TEST(InteractionInformation, NegativeWhenConditioningInduces) {
  // X and Z independent causes of Y (a collider): conditioning on Z can
  // only leave I(X;Y|Z) >= I(X;Y)... here we build the paper's Hobby case:
  // Y = X xor Z, so marginally I(X;Y)=0 but I(X;Y|Z)=1.
  Rng rng(59);
  std::vector<int32_t> xs, ys, zs;
  for (int i = 0; i < 4000; ++i) {
    int32_t x = static_cast<int32_t>(rng.NextBelow(2));
    int32_t z = static_cast<int32_t>(rng.NextBelow(2));
    xs.push_back(x);
    zs.push_back(z);
    ys.push_back(x ^ z);
  }
  double ii = InteractionInformation(MakeVar(xs, 2), MakeVar(ys, 2),
                                     MakeVar(zs, 2));
  EXPECT_LT(ii, -0.9);  // I(X;Y) ~ 0, I(X;Y|Z) ~ 1
}

TEST(InteractionInformation, PositiveForConfounder) {
  Rng rng(53);
  std::vector<int32_t> xs, ys, zs;
  for (int i = 0; i < 2000; ++i) {
    int32_t z = static_cast<int32_t>(rng.NextBelow(3));
    zs.push_back(z);
    xs.push_back(rng.NextBernoulli(0.85) ? z : static_cast<int32_t>(rng.NextBelow(3)));
    ys.push_back(rng.NextBernoulli(0.85) ? z : static_cast<int32_t>(rng.NextBelow(3)));
  }
  double ii = InteractionInformation(MakeVar(xs, 3), MakeVar(ys, 3),
                                     MakeVar(zs, 3));
  EXPECT_GT(ii, 0.1);
}

// Property sweep: the chain rule I(X;Y|Z) = H(X,Z)+H(Y,Z)-H(X,Y,Z)-H(Z)
// holds for random data of every shape, with and without weights.
class CmiPropertyTest : public testing::TestWithParam<
                            std::tuple<int, int, int, bool>> {};

TEST_P(CmiPropertyTest, MatchesEntropyDecomposition) {
  auto [cx, cy, cz, weighted] = GetParam();
  Rng rng(1000 + cx * 100 + cy * 10 + cz + (weighted ? 7 : 0));
  const size_t n = 600;
  std::vector<int32_t> xs, ys, zs;
  std::vector<double> w;
  for (size_t i = 0; i < n; ++i) {
    int32_t z = static_cast<int32_t>(rng.NextBelow(cz));
    zs.push_back(z);
    xs.push_back(static_cast<int32_t>((z + rng.NextBelow(cx)) % cx));
    ys.push_back(static_cast<int32_t>((z + rng.NextBelow(cy)) % cy));
    w.push_back(rng.NextUniform(0.1, 2.0));
  }
  CodedVariable x = MakeVar(xs, cx), y = MakeVar(ys, cy), z = MakeVar(zs, cz);
  const std::vector<double>* wp = weighted ? &w : nullptr;
  double cmi = ConditionalMutualInformation(x, y, z, wp);
  CodedVariable xz = CombinePair(x, z);
  CodedVariable yz = CombinePair(y, z);
  CodedVariable xyz = CombinePair(xz, y);
  double expected = Entropy(xz, wp) + Entropy(yz, wp) - Entropy(xyz, wp) -
                    Entropy(z, wp);
  EXPECT_NEAR(cmi, std::max(0.0, expected), 1e-9);
  EXPECT_GE(cmi, 0.0);
  // Symmetry in X and Y.
  EXPECT_NEAR(cmi, ConditionalMutualInformation(y, x, z, wp), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CmiPropertyTest,
    testing::Combine(testing::Values(2, 4, 9), testing::Values(2, 5),
                     testing::Values(1, 3, 8), testing::Bool()));

// ------------------------------------------------------------ independence

TEST(Independence, DetectsDependence) {
  Rng rng(61);
  std::vector<int32_t> xs, ys;
  for (int i = 0; i < 800; ++i) {
    int32_t x = static_cast<int32_t>(rng.NextBelow(3));
    xs.push_back(x);
    ys.push_back(rng.NextBernoulli(0.8) ? x : static_cast<int32_t>(rng.NextBelow(3)));
  }
  auto r = ConditionalIndependenceTest(MakeVar(xs, 3), MakeVar(ys, 3),
                                       Constant(800));
  EXPECT_FALSE(r.independent);
  EXPECT_LT(r.p_value, 0.05);
}

TEST(Independence, AcceptsIndependence) {
  Rng rng(67);
  std::vector<int32_t> xs, ys;
  for (int i = 0; i < 800; ++i) {
    xs.push_back(static_cast<int32_t>(rng.NextBelow(3)));
    ys.push_back(static_cast<int32_t>(rng.NextBelow(3)));
  }
  auto r = ConditionalIndependenceTest(MakeVar(xs, 3), MakeVar(ys, 3),
                                       Constant(800));
  EXPECT_TRUE(r.independent);
}

TEST(Independence, ConditionalIndependenceThroughConfounder) {
  // X <- Z -> Y: dependent marginally, independent given Z.
  Rng rng(71);
  std::vector<int32_t> xs, ys, zs;
  for (int i = 0; i < 3000; ++i) {
    int32_t z = static_cast<int32_t>(rng.NextBelow(2));
    zs.push_back(z);
    xs.push_back(rng.NextBernoulli(0.85) ? z : 1 - z);
    ys.push_back(rng.NextBernoulli(0.85) ? z : 1 - z);
  }
  CodedVariable x = MakeVar(xs, 2), y = MakeVar(ys, 2), z = MakeVar(zs, 2);
  auto marginal = ConditionalIndependenceTest(x, y, Constant(3000));
  EXPECT_FALSE(marginal.independent);
  auto conditional = ConditionalIndependenceTest(x, y, z);
  EXPECT_TRUE(conditional.independent);
}

TEST(Independence, EpsilonShortCircuit) {
  IndependenceOptions opts;
  opts.cmi_epsilon = 100.0;  // everything looks independent
  Rng rng(73);
  std::vector<int32_t> xs;
  for (int i = 0; i < 100; ++i) {
    xs.push_back(static_cast<int32_t>(rng.NextBelow(2)));
  }
  CodedVariable x = MakeVar(xs, 2);
  auto r = ConditionalIndependenceTest(x, x, Constant(100), opts);
  EXPECT_TRUE(r.independent);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(Independence, GTestAgreesWithPermutationOnClearCases) {
  Rng rng(83);
  std::vector<int32_t> xs, ys, zs, ind;
  for (int i = 0; i < 2000; ++i) {
    int32_t x = static_cast<int32_t>(rng.NextBelow(3));
    xs.push_back(x);
    ys.push_back(rng.NextBernoulli(0.7) ? x : static_cast<int32_t>(rng.NextBelow(3)));
    zs.push_back(static_cast<int32_t>(rng.NextBelow(2)));
    ind.push_back(static_cast<int32_t>(rng.NextBelow(3)));
  }
  CodedVariable x = MakeVar(xs, 3), y = MakeVar(ys, 3), z = MakeVar(zs, 2),
                q = MakeVar(ind, 3);
  IndependenceOptions g;
  g.method = IndependenceMethod::kGTest;
  auto dep = ConditionalIndependenceTest(x, y, z, g);
  EXPECT_FALSE(dep.independent);
  EXPECT_LT(dep.p_value, 0.01);
  auto indep = ConditionalIndependenceTest(x, q, z, g);
  EXPECT_TRUE(indep.independent);
}

TEST(Independence, GTestCalibratedUnderNull) {
  // Under independence, the G-test p-value should be roughly uniform:
  // the rejection rate at alpha=0.05 stays near 5%.
  Rng rng(89);
  int rejections = 0;
  const int kTrials = 200;
  IndependenceOptions g;
  g.method = IndependenceMethod::kGTest;
  g.cmi_epsilon = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<int32_t> xs, ys;
    for (int i = 0; i < 500; ++i) {
      xs.push_back(static_cast<int32_t>(rng.NextBelow(4)));
      ys.push_back(static_cast<int32_t>(rng.NextBelow(4)));
    }
    auto r = ConditionalIndependenceTest(MakeVar(xs, 4), MakeVar(ys, 4),
                                         Constant(500), g);
    rejections += r.independent ? 0 : 1;
  }
  EXPECT_LT(rejections, kTrials / 8);  // ~5% expected, allow slack
  EXPECT_GT(rejections, 0);            // but not degenerate either
}

TEST(Independence, DeterministicAcrossRuns) {
  Rng rng(79);
  std::vector<int32_t> xs, ys;
  for (int i = 0; i < 300; ++i) {
    xs.push_back(static_cast<int32_t>(rng.NextBelow(4)));
    ys.push_back(static_cast<int32_t>(rng.NextBelow(4)));
  }
  CodedVariable x = MakeVar(xs, 4), y = MakeVar(ys, 4);
  auto a = ConditionalIndependenceTest(x, y, Constant(300));
  auto b = ConditionalIndependenceTest(x, y, Constant(300));
  EXPECT_DOUBLE_EQ(a.p_value, b.p_value);
}

TEST(Independence, GoldenPValuesPinPerPermutationRngScheme) {
  // Regression goldens for the permutation RNG refactor: permutation i
  // shuffles a fresh copy of X with Rng(MixSeed(seed, i)) instead of one
  // generator mutated across the loop. Any change to the shuffle order,
  // the seed derivation, or the stratum iteration order moves these exact
  // p-values.
  Rng rng(91);
  std::vector<int32_t> xs, ys, zs;
  for (int i = 0; i < 400; ++i) {
    xs.push_back(static_cast<int32_t>(rng.NextBelow(4)));
    ys.push_back(static_cast<int32_t>(rng.NextBelow(4)));
    zs.push_back(static_cast<int32_t>(rng.NextBelow(3)));
  }
  CodedVariable x = MakeVar(xs, 4), y = MakeVar(ys, 4), z = MakeVar(zs, 3);

  IndependenceOptions opts;  // seed 0xC0FFEE, 99 permutations
  auto r = ConditionalIndependenceTest(x, y, z, opts);
  EXPECT_DOUBLE_EQ(r.cmi, 0.039858696961645679);
  EXPECT_DOUBLE_EQ(r.p_value, 0.77);
  EXPECT_TRUE(r.independent);

  opts.seed = 12345;  // different seed, different permutation set
  EXPECT_DOUBLE_EQ(ConditionalIndependenceTest(x, y, z, opts).p_value, 0.73);

  opts.seed = 0xC0FFEE;
  opts.num_permutations = 199;  // prefix property does NOT hold (p changes)
  EXPECT_DOUBLE_EQ(ConditionalIndependenceTest(x, y, z, opts).p_value, 0.76);

  // A clearly dependent pair bottoms out at the permutation floor
  // 1 / (1 + num_permutations) regardless of the RNG scheme.
  Rng rng2(61);
  std::vector<int32_t> dx, dy;
  for (int i = 0; i < 500; ++i) {
    int32_t v = static_cast<int32_t>(rng2.NextBelow(3));
    dx.push_back(v);
    dy.push_back(rng2.NextBernoulli(0.25) ? v
                                          : static_cast<int32_t>(rng2.NextBelow(3)));
  }
  std::vector<int32_t> dz;
  for (int i = 0; i < 500; ++i) {
    dz.push_back(static_cast<int32_t>(rng2.NextBelow(2)));
  }
  IndependenceOptions dopts;
  auto dep = ConditionalIndependenceTest(MakeVar(dx, 3), MakeVar(dy, 3),
                                         MakeVar(dz, 2), dopts);
  EXPECT_DOUBLE_EQ(dep.p_value, 0.01);
  EXPECT_FALSE(dep.independent);
}

// --------------------------------------- weighted information identities
//
// Property tests: the plug-in estimators must satisfy the textbook
// identities for *any* weighting (IPW reweighting is just a different
// empirical measure), on fully observed data. Miller-Madow is left off:
// its support-based correction terms do not telescope across the chain
// rule.

TEST(WeightedIdentities, RandomWeightsSatisfyIdentities) {
  Rng rng(101);
  EntropyOptions plain;
  plain.miller_madow = false;
  for (int trial = 0; trial < 25; ++trial) {
    const size_t n = 200 + rng.NextBelow(400);
    const int32_t cx = 2 + static_cast<int32_t>(rng.NextBelow(5));
    const int32_t cy = 2 + static_cast<int32_t>(rng.NextBelow(5));
    const int32_t cz = 2 + static_cast<int32_t>(rng.NextBelow(4));
    std::vector<int32_t> x, y, z;
    std::vector<double> w;
    for (size_t i = 0; i < n; ++i) {
      int32_t base = static_cast<int32_t>(rng.NextBelow(cx));
      x.push_back(base);
      // Correlate y with x half the time so MI is nontrivial.
      y.push_back(rng.NextBernoulli(0.5)
                      ? base % cy
                      : static_cast<int32_t>(rng.NextBelow(cy)));
      z.push_back(static_cast<int32_t>(rng.NextBelow(cz)));
      w.push_back(rng.NextUniform(0.1, 3.0));
    }
    CodedVariable X = MakeVar(x, cx), Y = MakeVar(y, cy), Z = MakeVar(z, cz);

    // Chain rule: H(X,Y) = H(Y) + H(X|Y).
    EXPECT_NEAR(JointEntropy(X, Y, &w, plain),
                Entropy(Y, &w, plain) + ConditionalEntropy(X, Y, &w, plain),
                1e-10);
    // Symmetry: I(X;Y) = I(Y;X).
    EXPECT_NEAR(MutualInformation(X, Y, &w, plain),
                MutualInformation(Y, X, &w, plain), 1e-10);
    // Nonnegativity: I(X;Y|Z) >= 0.
    EXPECT_GE(ConditionalMutualInformation(X, Y, Z, &w, plain), 0.0);
  }
}

TEST(WeightedIdentities, UnitWeightsMatchUnweighted) {
  Rng rng(202);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 300;
    const int32_t cx = 2 + static_cast<int32_t>(rng.NextBelow(6));
    const int32_t cy = 2 + static_cast<int32_t>(rng.NextBelow(6));
    const int32_t cz = 2 + static_cast<int32_t>(rng.NextBelow(3));
    std::vector<int32_t> x, y, z;
    for (size_t i = 0; i < n; ++i) {
      x.push_back(static_cast<int32_t>(rng.NextBelow(cx)));
      y.push_back(static_cast<int32_t>(rng.NextBelow(cy)));
      z.push_back(static_cast<int32_t>(rng.NextBelow(cz)));
    }
    const std::vector<double> ones(n, 1.0);
    CodedVariable X = MakeVar(x, cx), Y = MakeVar(y, cy), Z = MakeVar(z, cz);

    // Weights of all ones ARE the unweighted estimator (both with the
    // default Miller-Madow correction and without).
    for (bool mm : {false, true}) {
      EntropyOptions opts;
      opts.miller_madow = mm;
      EXPECT_NEAR(Entropy(X, &ones, opts), Entropy(X, nullptr, opts), 1e-12);
      EXPECT_NEAR(JointEntropy(X, Y, &ones, opts),
                  JointEntropy(X, Y, nullptr, opts), 1e-12);
      EXPECT_NEAR(ConditionalEntropy(X, Y, &ones, opts),
                  ConditionalEntropy(X, Y, nullptr, opts), 1e-12);
      EXPECT_NEAR(MutualInformation(X, Y, &ones, opts),
                  MutualInformation(X, Y, nullptr, opts), 1e-12);
      EXPECT_NEAR(ConditionalMutualInformation(X, Y, Z, &ones, opts),
                  ConditionalMutualInformation(X, Y, Z, nullptr, opts),
                  1e-12);
    }
  }
}

}  // namespace
}  // namespace mesa
