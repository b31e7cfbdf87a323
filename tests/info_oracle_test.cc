// Differential tests of the plug-in estimators (src/info) against an
// independent oracle: each quantity recomputed from its definition over a
// std::map keyed by code tuples, summed in long double. The oracle shares
// no code with the production kernels, so a bug common to the dense,
// packed and fallback paths — which the kernel tests only compare with
// each other — still shows up here. Own binary: CI runs it under TSan at
// MESA_NUM_THREADS=8 and with MESA_INFO_CACHE=OFF, so both sides of the
// scalar memo are checked against the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "info/entropy.h"
#include "info/key_packing.h"
#include "info/mutual_information.h"

namespace mesa {
namespace {

using Vars = std::vector<const CodedVariable*>;

// H of the joint of `project`, over the rows where every variable of
// `support` is present (code >= 0) and the weight is positive, with the
// Miller-Madow correction (support - 1) / (2 N ln 2) when asked.
long double OracleH(const Vars& project, const Vars& support,
                    const std::vector<double>* weights, bool miller_madow) {
  std::map<std::vector<int32_t>, long double> cells;
  long double total = 0.0L;
  const size_t n = support[0]->codes.size();
  for (size_t i = 0; i < n; ++i) {
    bool present = true;
    for (const CodedVariable* v : support) present &= v->codes[i] >= 0;
    const long double w = weights != nullptr ? (*weights)[i] : 1.0L;
    if (!present || w <= 0.0L) continue;
    std::vector<int32_t> key;
    for (const CodedVariable* v : project) key.push_back(v->codes[i]);
    cells[key] += w;
    total += w;
  }
  if (total <= 0.0L) return 0.0L;
  long double h = 0.0L;
  for (const auto& [key, c] : cells) h -= c / total * std::log2(c / total);
  if (miller_madow && cells.size() > 1) {
    h += (cells.size() - 1) / (2.0L * total * std::log(2.0L));
  }
  return h;
}

long double OracleEntropy(const CodedVariable& x,
                          const std::vector<double>* w, bool mm) {
  return OracleH({&x}, {&x}, w, mm);
}

long double OracleConditionalEntropy(const CodedVariable& x,
                                     const CodedVariable& y,
                                     const std::vector<double>* w, bool mm) {
  return OracleH({&x, &y}, {&x, &y}, w, mm) - OracleH({&y}, {&x, &y}, w, mm);
}

long double OracleMi(const CodedVariable& x, const CodedVariable& y,
                     const std::vector<double>* w, bool mm) {
  const Vars s = {&x, &y};
  return std::max(0.0L, OracleH({&x}, s, w, mm) + OracleH({&y}, s, w, mm) -
                            OracleH({&x, &y}, s, w, mm));
}

long double OracleCmi(const CodedVariable& x, const CodedVariable& y,
                      const CodedVariable& z, const std::vector<double>* w,
                      bool mm) {
  const Vars s = {&x, &y, &z};
  return std::max(0.0L, OracleH({&x, &z}, s, w, mm) +
                            OracleH({&y, &z}, s, w, mm) -
                            OracleH({&x, &y, &z}, s, w, mm) -
                            OracleH({&z}, s, w, mm));
}

// `card` is the declared cardinality; codes are drawn below `range`
// (<= card), 8% of them missing.
CodedVariable RandomCoded(Rng& rng, size_t n, int32_t card, int32_t range) {
  CodedVariable v;
  v.cardinality = card;
  v.codes.resize(n);
  for (auto& c : v.codes) {
    c = rng.NextBernoulli(0.08) ? -1
                                : static_cast<int32_t>(rng.NextBelow(range));
  }
  return v;
}

int KeyBits(const Vars& vars) {
  int bits = 0;
  for (const CodedVariable* v : vars) {
    bits += info_internal::BitsFor(v->cardinality);
  }
  return bits;
}

void ExpectClose(double actual, long double oracle, const std::string& label) {
  const long double bound = 1e-12L + 1e-11L * std::fabs(oracle);
  EXPECT_LE(std::fabs(static_cast<long double>(actual) - oracle), bound)
      << label << ": production " << actual << " vs oracle "
      << static_cast<double>(oracle);
}

// Every public estimator against the oracle on one seeded triple, both
// unweighted and with IPW-style weights (inverse propensities in [1, 6],
// 10% zeroed the way a clipped row drops out). Each call runs twice: the
// repeat is a scalar-memo hit when the cache is on.
void CheckAgainstOracle(const CodedVariable& x, const CodedVariable& y,
                        const CodedVariable& z, uint64_t seed,
                        const std::string& path) {
  Rng rng(seed ^ 0x5eed);
  std::vector<double> ipw(x.codes.size());
  for (auto& w : ipw) {
    w = rng.NextBernoulli(0.1) ? 0.0 : rng.NextUniform(1.0, 6.0);
  }
  const std::vector<double>* arms[] = {nullptr, &ipw};
  for (const std::vector<double>* w : arms) {
    for (bool mm : {false, true}) {
      EntropyOptions options;
      options.miller_madow = mm;
      const std::string label = path + " seed=" + std::to_string(seed) +
                                (w != nullptr ? " weighted" : "") +
                                (mm ? " mm" : "");
      for (int pass = 0; pass < 2; ++pass) {
        ExpectClose(Entropy(x, w, options), OracleEntropy(x, w, mm),
                    label + " H(X)");
        ExpectClose(ConditionalEntropy(x, y, w, options),
                    OracleConditionalEntropy(x, y, w, mm), label + " H(X|Y)");
        ExpectClose(MutualInformation(x, y, w, options), OracleMi(x, y, w, mm),
                    label + " I(X;Y)");
        ExpectClose(MutualInformation(z, x, w, options), OracleMi(z, x, w, mm),
                    label + " I(Z;X)");
        ExpectClose(ConditionalMutualInformation(x, y, z, w, options),
                    OracleCmi(x, y, z, w, mm), label + " I(X;Y|Z)");
        ExpectClose(ConditionalMutualInformation(x, z, y, w, options),
                    OracleCmi(x, z, y, w, mm), label + " I(X;Z|Y)");
      }
    }
  }
}

// Key widths <= 20 bits: the dense arena for every estimator.
TEST(InfoOracle, DensePathMatchesNaiveEstimator) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const auto cx = static_cast<int32_t>(2 + seed % 5);
    const auto cy = static_cast<int32_t>(3 + seed % 4);
    const auto cz = static_cast<int32_t>(2 + seed % 3);
    CodedVariable x = RandomCoded(rng, 1500, cx, cx);
    CodedVariable y = RandomCoded(rng, 1500, cy, cy);
    CodedVariable z = RandomCoded(rng, 1500, cz, cz);
    ASSERT_LE(KeyBits({&x, &y, &z}), 20);
    CheckAgainstOracle(x, y, z, seed, "dense");
  }
}

// 21-64 key bits: the sort-packed kernel for MI and CMI, the composite
// path for H(X|Y).
TEST(InfoOracle, PackedPathMatchesNaiveEstimator) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(100 + seed);
    CodedVariable x = RandomCoded(rng, 2000, 1500, 1500);
    CodedVariable y = RandomCoded(rng, 2000, 1200, 1200);
    CodedVariable z = RandomCoded(rng, 2000, 40, 40);
    ASSERT_GT(KeyBits({&x, &y}) + 1, 20);  // MI: a trivial z axis
    ASSERT_GT(KeyBits({&x, &z, &y}), 20);
    ASSERT_LE(KeyBits({&x, &y, &z}), 64);
    CheckAgainstOracle(x, y, z, seed, "packed");
  }
}

// > 64 key bits: the chain-rule fallback for CMI. The cardinalities are
// declared pessimistically (a product bound, say) while the codes stay
// small — the case the fallback exists for.
TEST(InfoOracle, FallbackPathMatchesNaiveEstimator) {
  const int32_t wide = std::numeric_limits<int32_t>::max();
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(200 + seed);
    CodedVariable x = RandomCoded(rng, 2000, wide, 60);
    CodedVariable y = RandomCoded(rng, 2000, wide, 45);
    CodedVariable z = RandomCoded(rng, 2000, 8, 8);
    ASSERT_GT(KeyBits({&x, &y, &z}), 64);
    ASSERT_GT(KeyBits({&x, &z, &y}), 64);
    CheckAgainstOracle(x, y, z, seed, "fallback");
  }
}

}  // namespace
}  // namespace mesa
