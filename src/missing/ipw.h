#ifndef MESA_MISSING_IPW_H_
#define MESA_MISSING_IPW_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "stats/logistic.h"
#include "table/table.h"

namespace mesa {

/// Options for inverse-probability-weight estimation.
struct IpwOptions {
  /// Covariate columns used to model P(R_E = 1 | X). They must be fully
  /// observed (columns from the base dataset, per Section 3.2: "Data
  /// available for this are the values of the attributes in D"). Non-
  /// numeric covariates are entered as dense integer codes.
  std::vector<std::string> covariates;
  /// Propensities are clipped to [clip, 1 - clip] before inversion so a few
  /// extreme predictions cannot dominate the weighted estimator.
  double clip = 0.01;
  LogisticOptions logistic;
};

/// The propensity model's design over one table: every covariate
/// standardized (z-scored over its non-null rows; null cells sit at the
/// mean, i.e. 0) into one row-major rows × covariates block. Numeric
/// covariates enter as values, string / bool ones as dense group codes.
/// The design depends on the table and the covariate list only — not on
/// the attribute being weighted — so one design serves every attribute
/// weighted over the same rows.
class IpwDesign {
 public:
  static Result<IpwDesign> Build(const Table& table,
                                 const std::vector<std::string>& covariates);

  size_t num_rows() const { return n_; }
  size_t width() const { return k_; }

  /// Fits P(R = 1 | X) for a missingness indicator with one 0/1 entry per
  /// design row.
  Result<LogisticModel> Fit(const std::vector<uint8_t>& observed,
                            const LogisticOptions& options) const;

  /// Per-row IPW weights under a fitted propensity `model`: P(R=1) / p̂_i,
  /// with p̂_i clipped to [clip, 1 - clip], for observed rows; 0 for the
  /// rest.
  std::vector<double> Weights(const std::vector<uint8_t>& observed,
                              const LogisticModel& model, double clip) const;

 private:
  size_t n_ = 0;
  size_t k_ = 0;
  std::vector<double> x_;  ///< row-major n_ × k_.
};

/// Weights of an indicator that needs no propensity model: unit weights
/// when every row is observed, zero weights when none is. Returns false
/// (and leaves `weights` alone) when a model is needed.
bool TrivialIpwWeights(const std::vector<uint8_t>& observed,
                       std::vector<double>* weights);

}  // namespace mesa

#endif  // MESA_MISSING_IPW_H_
