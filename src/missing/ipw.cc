#include "missing/ipw.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "missing/mask.h"
#include "query/group_by.h"

namespace mesa {

namespace {

size_t CountObserved(const std::vector<uint8_t>& observed) {
  size_t count = 0;
  for (uint8_t v : observed) count += v;
  return count;
}

}  // namespace

Result<IpwDesign> IpwDesign::Build(const Table& table,
                                   const std::vector<std::string>& covariates) {
  if (covariates.empty()) {
    return Status::InvalidArgument("IPW needs at least one covariate");
  }
  IpwDesign design;
  const size_t n = table.num_rows();
  const size_t k = covariates.size();
  design.n_ = n;
  design.k_ = k;
  design.x_.assign(n * k, 0.0);
  std::vector<double> raw(n);
  std::vector<uint8_t> ok(n);
  for (size_t c = 0; c < k; ++c) {
    const std::string& name = covariates[c];
    MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(name));
    std::fill(raw.begin(), raw.end(), 0.0);
    std::fill(ok.begin(), ok.end(), 0);
    if (col->type() == DataType::kString) {
      MESA_ASSIGN_OR_RETURN(std::vector<int32_t> codes,
                            EncodeGroups(table, name, nullptr));
      for (size_t i = 0; i < n; ++i) {
        if (codes[i] >= 0) {
          raw[i] = static_cast<double>(codes[i]);
          ok[i] = 1;
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (col->IsValid(i)) {
          raw[i] = col->NumericAt(i);
          ok[i] = 1;
        }
      }
    }
    double mean = 0.0;
    size_t cnt = 0;
    for (size_t i = 0; i < n; ++i) {
      if (ok[i]) {
        mean += raw[i];
        ++cnt;
      }
    }
    mean = cnt > 0 ? mean / static_cast<double>(cnt) : 0.0;
    // Standardise for solver conditioning.
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (ok[i]) {
        double d = raw[i] - mean;
        var += d * d;
      }
    }
    double sd = cnt > 1 ? std::sqrt(var / static_cast<double>(cnt - 1)) : 1.0;
    if (sd <= 0.0) sd = 1.0;
    for (size_t i = 0; i < n; ++i) {
      design.x_[i * k + c] = ok[i] ? (raw[i] - mean) / sd : 0.0;
    }
  }
  return design;
}

Result<LogisticModel> IpwDesign::Fit(const std::vector<uint8_t>& observed,
                                     const LogisticOptions& options) const {
  MESA_SPAN("ipw_fit");
  MESA_COUNT("missing/ipw_fits");
  return FitLogistic(x_, k_, observed, options);
}

std::vector<double> IpwDesign::Weights(const std::vector<uint8_t>& observed,
                                       const LogisticModel& model,
                                       double clip) const {
  const size_t n = observed.size();
  const double marginal_rate =
      n == 0 ? 0.0 : static_cast<double>(CountObserved(observed)) / n;
  std::vector<double> weights(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (!observed[i]) continue;  // incomplete case: weight 0
    double p = model.PredictProbability(&x_[i * k_], k_);
    p = std::clamp(p, clip, 1.0 - clip);
    weights[i] = marginal_rate / p;
  }
  return weights;
}

bool TrivialIpwWeights(const std::vector<uint8_t>& observed,
                       std::vector<double>* weights) {
  const size_t count = CountObserved(observed);
  if (count != 0 && count != observed.size()) return false;
  // All-missing stays all-zero; fully observed gets unit weights.
  weights->assign(observed.size(), count == 0 ? 0.0 : 1.0);
  return true;
}

Result<IpwWeights> ComputeIpwWeights(const Table& table,
                                     const std::string& attribute,
                                     const IpwOptions& options) {
  if (options.covariates.empty()) {
    return Status::InvalidArgument("IPW needs at least one covariate");
  }
  MESA_ASSIGN_OR_RETURN(const Column* attr, table.ColumnByName(attribute));
  const size_t n = attr->size();

  std::vector<uint8_t> r = MissingnessIndicator(*attr);
  IpwWeights out;
  out.marginal_rate =
      n == 0 ? 0.0 : static_cast<double>(CountObserved(r)) / n;
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
