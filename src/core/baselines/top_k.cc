#include "core/baselines/top_k.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/parallel.h"

namespace mesa {

Explanation RunTopK(const QueryAnalysis& analysis,
                    const std::vector<size_t>& candidate_indices, size_t k) {
  MESA_SPAN("baseline_topk");
  Explanation ex;
  ex.base_cmi = analysis.BaseCmi();
  ex.final_cmi = ex.base_cmi;

  // Per-candidate scores are independent; the sort key (score, index) is
  // unique, so the ranking is deterministic at any thread count.
  std::vector<std::pair<double, size_t>> scored(candidate_indices.size());
  ParallelFor(0, candidate_indices.size(), [&](size_t i) {
    size_t idx = candidate_indices[i];
    scored[i] = {analysis.CmiGivenAttribute(idx), idx};
  });
  std::sort(scored.begin(), scored.end());
  for (size_t i = 0; i < std::min(k, scored.size()); ++i) {
    ex.attribute_indices.push_back(scored[i].second);
    ex.attribute_names.push_back(
        analysis.attributes()[scored[i].second].name);
    ex.trace.push_back({scored[i].second,
                        analysis.attributes()[scored[i].second].name,
                        scored[i].first, 0.0});
  }
  if (!ex.attribute_indices.empty()) {
    ex.final_cmi = analysis.CmiGivenSet(ex.attribute_indices);
    ex.trace.back().cmi_after = ex.final_cmi;
  }
  return ex;
}

}  // namespace mesa
