#include "stats/logistic.h"

#include <algorithm>
#include <cmath>

#include "stats/ols.h"

namespace mesa {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

double LogisticModel::PredictProbability(const double* features,
                                         size_t arity) const {
  double z = coefficients_.empty() ? 0.0 : coefficients_[0];
  arity = std::min(arity, coefficients_.size() - 1);
  for (size_t j = 0; j < arity; ++j) z += coefficients_[j + 1] * features[j];
  return Sigmoid(z);
}

Result<LogisticModel> FitLogistic(const std::vector<double>& x, size_t k,
                                  const std::vector<uint8_t>& y,
                                  const LogisticOptions& options) {
  const size_t n = y.size();
  if (x.size() != n * k) return Status::InvalidArgument("x/y length mismatch");
  if (n == 0) return Status::InvalidArgument("empty sample");
  const size_t p = k + 1;

  auto feature = [&](size_t row, size_t j) -> double {
    return j == 0 ? 1.0 : x[row * k + j - 1];
  };

  LogisticModel model;
  std::vector<double>& beta = model.coefficients_;
  beta.assign(p, 0.0);

  // Start the intercept at the log-odds of the base rate: one Newton step
  // from a sensible point converges much faster on imbalanced labels.
  double pos = 0.0;
  for (uint8_t label : y) pos += label;
  double base = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  beta[0] = std::log(base / (1.0 - base));

  std::vector<double> hess(p * p);
  std::vector<double> grad(p);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(hess.begin(), hess.end(), 0.0);
    std::fill(grad.begin(), grad.end(), 0.0);
    for (size_t r = 0; r < n; ++r) {
      double z = 0.0;
      for (size_t j = 0; j < p; ++j) z += beta[j] * feature(r, j);
      double mu = Sigmoid(z);
      double w = std::max(mu * (1.0 - mu), 1e-10);
      double resid = static_cast<double>(y[r]) - mu;
      for (size_t i = 0; i < p; ++i) {
        double fi = feature(r, i);
        grad[i] += fi * resid;
        for (size_t j = i; j < p; ++j) {
          hess[i * p + j] += w * fi * feature(r, j);
        }
      }
    }
    for (size_t i = 0; i < p; ++i) {
      grad[i] -= options.l2_penalty * beta[i];
      hess[i * p + i] += options.l2_penalty;
      for (size_t j = 0; j < i; ++j) hess[i * p + j] = hess[j * p + i];
    }
    std::vector<double> step = grad;
    std::vector<double> chol = hess;
    if (!CholeskySolve(chol, step, p)) {
      return Status::Internal("logistic Hessian not positive definite");
    }
    double max_delta = 0.0;
    for (size_t j = 0; j < p; ++j) {
      beta[j] += step[j];
      max_delta = std::max(max_delta, std::fabs(step[j]));
    }
    model.iterations_ = iter + 1;
    if (max_delta < options.tolerance) {
      model.converged_ = true;
      break;
    }
  }
  return model;
}

}  // namespace mesa
