#ifndef MESA_TESTS_ONE_SHOT_IPW_H_
#define MESA_TESTS_ONE_SHOT_IPW_H_

// IPW weights for one attribute, computed start to finish with no memo:
// the missingness indicator, then either the trivial weights or a
// logistic propensity fit over a fresh design. Candidate preparation runs
// the same steps through its memo; the tests use this helper to check the
// weights' behaviour and, in prepare_memo_test, as the oracle for the
// shared design.

#include <string>
#include <vector>

#include "common/result.h"
#include "missing/ipw.h"
#include "missing/mask.h"
#include "table/table.h"

namespace mesa {

struct IpwWeights {
  /// Per-row weight: P(R_E=1) / P̂(R_E=1 | X_i) for complete cases, 0 for
  /// rows where the attribute is missing.
  std::vector<double> weights;
  /// Overall observation rate P(R_E = 1).
  double marginal_rate = 0.0;
  bool model_converged = false;
};

inline Result<IpwWeights> ComputeIpwWeights(const Table& table,
                                            const std::string& attribute,
                                            const IpwOptions& options) {
  if (options.covariates.empty()) {
    return Status::InvalidArgument("IPW needs at least one covariate");
  }
  MESA_ASSIGN_OR_RETURN(const Column* attr, table.ColumnByName(attribute));
  const size_t n = attr->size();

  std::vector<uint8_t> r = MissingnessIndicator(*attr);
  size_t observed = 0;
  for (uint8_t v : r) observed += v;
  IpwWeights out;
  out.marginal_rate = n == 0 ? 0.0 : static_cast<double>(observed) / n;
  if (TrivialIpwWeights(r, &out.weights)) {
    out.model_converged = true;
    return out;
  }
  MESA_ASSIGN_OR_RETURN(IpwDesign design,
                        IpwDesign::Build(table, options.covariates));
  MESA_ASSIGN_OR_RETURN(LogisticModel model,
                        design.Fit(r, options.logistic));
  out.model_converged = model.converged();
  out.weights = design.Weights(r, model, options.clip);
  return out;
}

}  // namespace mesa

#endif  // MESA_TESTS_ONE_SHOT_IPW_H_
