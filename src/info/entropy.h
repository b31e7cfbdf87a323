#ifndef MESA_INFO_ENTROPY_H_
#define MESA_INFO_ENTROPY_H_

#include <vector>

#include "info/contingency.h"

namespace mesa {

/// Options for the plug-in entropy estimators. All quantities are in bits
/// (log base 2), matching the magnitudes quoted in the paper's examples.
struct EntropyOptions {
  /// Apply the Miller–Madow small-sample bias correction
  /// (+ (K_observed - 1) / (2 N ln 2)) to each raw entropy term.
  bool miller_madow = false;
};

/// Shannon entropy H(X) of a coded variable. Rows with code -1 are skipped;
/// optional per-row weights give the IPW estimator. Empty support yields 0.
double Entropy(const CodedVariable& x,
               const std::vector<double>* weights = nullptr,
               const EntropyOptions& options = {});

/// Conditional entropy H(X | Y) = H(X,Y) - H(Y).
double ConditionalEntropy(const CodedVariable& x, const CodedVariable& y,
                          const std::vector<double>* weights = nullptr,
                          const EntropyOptions& options = {});

}  // namespace mesa

#endif  // MESA_INFO_ENTROPY_H_
