#ifndef MESA_STATS_LOGISTIC_H_
#define MESA_STATS_LOGISTIC_H_

#include <vector>

#include "common/result.h"

namespace mesa {

/// Options for the logistic-regression solver.
struct LogisticOptions {
  size_t max_iterations = 50;     ///< Newton (IRLS) iterations.
  double tolerance = 1e-8;        ///< convergence on max |delta beta|.
  double l2_penalty = 1e-6;       ///< small ridge for separable data.
};

/// A fitted logistic model P(y=1|x) = sigmoid(b0 + b.x).
class LogisticModel {
 public:
  LogisticModel() = default;
  explicit LogisticModel(std::vector<double> coefficients)
      : coefficients_(std::move(coefficients)) {}

  /// Coefficients, intercept first.
  const std::vector<double>& coefficients() const { return coefficients_; }

  /// Predicted probability for one feature vector (arity = p - 1).
  double PredictProbability(const std::vector<double>& features) const {
    return PredictProbability(features.data(), features.size());
  }
  /// The same for one row of a flat design: `arity` features at `features`.
  double PredictProbability(const double* features, size_t arity) const;

  bool converged() const { return converged_; }
  size_t iterations() const { return iterations_; }

 private:
  friend Result<LogisticModel> FitLogistic(const std::vector<double>& x,
                                           size_t k,
                                           const std::vector<uint8_t>& y,
                                           const LogisticOptions& options);

  std::vector<double> coefficients_;
  bool converged_ = false;
  size_t iterations_ = 0;
};

/// Fits logistic regression by iteratively reweighted least squares (Newton-
/// Raphson), with an L2 ridge to keep separable problems well posed. `x` is
/// a flat row-major design of `k` features per row — row r's features are
/// x[r * k, r * k + k) — with no intercept column (one is added); `y` holds
/// 0/1 labels. Used to estimate missingness propensities P(R_E = 1 | X)
/// for IPW (Section 3.2 of the paper).
Result<LogisticModel> FitLogistic(const std::vector<double>& x, size_t k,
                                  const std::vector<uint8_t>& y,
                                  const LogisticOptions& options = {});

}  // namespace mesa

#endif  // MESA_STATS_LOGISTIC_H_
