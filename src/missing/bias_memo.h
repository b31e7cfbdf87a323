#ifndef MESA_MISSING_BIAS_MEMO_H_
#define MESA_MISSING_BIAS_MEMO_H_

/// Content-addressed memo of candidate preparation's missing-data work
/// (docs/performance.md §2.6): the selection-bias verdict of one
/// attribute and, when it is biased, the fitted IPW propensity
/// coefficients. Both are pure functions of the attribute's content, the
/// outcome / exposure / covariate contents, and the options that feed the
/// tests and the fit, so a hit is exactly what a recompute would return.
/// The memo keeps coefficients, never per-row weights: a hit re-derives
/// the weights with one predict pass over the query's shared IpwDesign.
///
/// It shares the sufficient-statistics cache's gate: callers consult it
/// only when info_cache::Enabled(), and info_cache::Clear() drops it.

#include <cstdint>
#include <string>
#include <vector>

#include "missing/ipw.h"
#include "missing/selection_bias.h"
#include "stats/discretizer.h"
#include "table/table.h"

namespace mesa {

/// One memoized verdict.
struct BiasVerdict {
  bool biased = false;
  /// Propensity coefficients, intercept first, of a biased attribute;
  /// empty when its weights need no model (see TrivialIpwWeights).
  std::vector<double> coefficients;
};

/// Key part shared by every candidate of one prepared query: the content
/// of the outcome, of every exposure component and of every covariate
/// column of `table`, plus every option the verdict or the fit reads —
/// the discretizer that codes O and T, the bias detector's discretizer
/// and independence options, the IPW clip and the logistic options.
uint64_t BiasMemoQueryKey(const Table& table, const std::string& outcome,
                          const std::vector<std::string>& exposures,
                          const DiscretizerOptions& coding,
                          const SelectionBiasOptions& bias,
                          const IpwOptions& ipw);

/// Full key of one candidate: the query part plus the attribute content.
uint64_t BiasMemoKey(uint64_t query_key, const Column& attribute);

bool LookupBiasVerdict(uint64_t key, BiasVerdict* verdict);
void InsertBiasVerdict(uint64_t key, BiasVerdict verdict);

/// Drops every memoized verdict (info_cache::Clear() calls this too).
void ClearBiasMemo();

}  // namespace mesa

#endif  // MESA_MISSING_BIAS_MEMO_H_
