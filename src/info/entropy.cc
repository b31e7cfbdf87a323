#include "info/entropy.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "info/info_cache.h"
#include "info/key_packing.h"

namespace mesa {

namespace {

using info_internal::BitsFor;

// Scalar-memo tags for the entropy family (see info_cache.h). Entropy
// and conditional entropy have different missing-row semantics, so they
// must never share a memo slot.
constexpr uint64_t kTagEntropy = 0x48;      // "H"
constexpr uint64_t kTagCondEntropy = 0x4348;  // "CH"

double EntropyFromCounts(const std::vector<double>& counts, double total,
                         const EntropyOptions& options) {
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  size_t support = 0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    ++support;
    double p = c / total;
    h -= p * std::log2(p);
  }
  if (options.miller_madow && support > 1) {
    h += static_cast<double>(support - 1) / (2.0 * total * std::log(2.0));
  }
  return h;
}

// H(X|Y) computed from the rows: one flat-array pass when the joint key
// space is small (this runs per candidate inside the trap tests, so it
// must not hash), else entropy differences over composites.
double ConditionalEntropyFromRows(const CodedVariable& x,
                                  const CodedVariable& y,
                                  const std::vector<double>* weights,
                                  const EntropyOptions& options) {
  const int bx = BitsFor(std::max<int32_t>(1, x.cardinality));
  const int by = BitsFor(std::max<int32_t>(1, y.cardinality));
  if (bx + by <= 20) {
    std::vector<double> joint(size_t{1} << (bx + by), 0.0);
    double total = 0.0;
    const size_t n = x.codes.size();
    for (size_t i = 0; i < n; ++i) {
      int32_t cx = x.codes[i], cy = y.codes[i];
      if ((cx | cy) < 0) continue;
      double w = weights != nullptr ? (*weights)[i] : 1.0;
      if (w <= 0.0) continue;
      joint[(static_cast<size_t>(cx) << by) | static_cast<size_t>(cy)] += w;
      total += w;
    }
    if (total <= 0.0) return 0.0;
    std::vector<double> marginal_y(size_t{1} << by, 0.0);
    double h_xy = 0.0;
    size_t support_xy = 0;
    const double inv_total = 1.0 / total;
    for (size_t key = 0; key < joint.size(); ++key) {
      double c = joint[key];
      if (c <= 0.0) continue;
      ++support_xy;
      double p = c * inv_total;
      h_xy -= p * std::log2(p);
      marginal_y[key & ((size_t{1} << by) - 1)] += c;
    }
    double h_y = 0.0;
    size_t support_y = 0;
    for (double c : marginal_y) {
      if (c <= 0.0) continue;
      ++support_y;
      double p = c * inv_total;
      h_y -= p * std::log2(p);
    }
    if (options.miller_madow) {
      const double mm = 1.0 / (2.0 * total * std::log(2.0));
      if (support_xy > 1) h_xy += (support_xy - 1) * mm;
      if (support_y > 1) h_y += (support_y - 1) * mm;
    }
    return h_xy - h_y;
  }
  // Restrict both terms to rows observed in *both* variables so the
  // difference is taken over one consistent sample.
  CodedVariable xy = CombinePair(x, y);
  CodedVariable y_joint = y;
  for (size_t i = 0; i < y_joint.codes.size(); ++i) {
    if (xy.codes[i] < 0) y_joint.codes[i] = -1;
  }
  return Entropy(xy, weights, options) - Entropy(y_joint, weights, options);
}

}  // namespace

double Entropy(const CodedVariable& x, const std::vector<double>* weights,
               const EntropyOptions& options) {
  MESA_COUNT("info/entropy_evals");
  MESA_SPAN("entropy");
  return info_cache::Memoized(
      kTagEntropy, {&x}, weights, options.miller_madow,
      [&](const uint64_t*, uint64_t) {
        double total = 0.0;
        std::vector<double> counts = WeightedCounts(x, weights, &total);
        return EntropyFromCounts(counts, total, options);
      });
}

double JointEntropy(const CodedVariable& x, const CodedVariable& y,
                    const std::vector<double>* weights,
                    const EntropyOptions& options) {
  return Entropy(CombinePair(x, y), weights, options);
}

double ConditionalEntropy(const CodedVariable& x, const CodedVariable& y,
                          const std::vector<double>* weights,
                          const EntropyOptions& options) {
  MESA_COUNT("info/cond_entropy_evals");
  MESA_SPAN("cond_entropy");
  // Whole-expression memo only: H(X|Y) skips rows missing in X *or* Y,
  // a different support than any three-variable cube, so its kernel is
  // never derived from cached cubes by projection.
  return info_cache::Memoized(
      kTagCondEntropy, {&x, &y}, weights, options.miller_madow,
      [&](const uint64_t*, uint64_t) {
        return ConditionalEntropyFromRows(x, y, weights, options);
      });
}

}  // namespace mesa
