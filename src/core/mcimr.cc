#include "core/mcimr.h"

#include <algorithm>
#include <limits>

#include "common/cancel.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "info/contingency.h"

namespace mesa {

std::string Explanation::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < attribute_names.size(); ++i) {
    if (i > 0) out += ", ";
    out += attribute_names[i];
  }
  out += "}";
  return out;
}

int NextBestAttribute(const QueryAnalysis& analysis,
                      const std::vector<size_t>& candidates,
                      const std::vector<size_t>& selected,
                      const McimrOptions& options, double* score_out) {
  // The redundancy penalty is scaled into CMI units: a fully redundant
  // attribute (normalised redundancy 1) costs as much as zero explanatory
  // progress.
  const double red_scale = options.redundancy_weight * analysis.BaseCmi();
  const double inf = std::numeric_limits<double>::infinity();
  // Score every candidate concurrently (ineligible ones stay at +inf),
  // then take the argmin serially in candidate order — the same value and
  // tie-breaking as a serial scan, at any thread count.
  std::vector<double> scores(candidates.size(), inf);
  ParallelFor(0, candidates.size(), [&](size_t k) {
    MESA_SPAN("score_candidate");
    CancelCheckpoint();  // per-candidate scoring checkpoint
    size_t cand = candidates[k];
    if (std::find(selected.begin(), selected.end(), cand) !=
        selected.end()) {
      return;
    }
    // Min-CI term: I(O;T|C,E). Individually unimportant attributes are
    // excluded outright (Key Assumption, §2.2), as are single-attribute
    // exposure identifiers (Lemma A.2).
    double v1 = analysis.CmiGivenAttribute(cand);
    if (v1 > analysis.BaseCmi() *
                 (1.0 - options.individual_relevance_margin)) {
      return;
    }
    if (options.exclude_exposure_traps && analysis.IsExposureTrap(cand)) {
      return;
    }
    // Min-Redundancy term: mean redundancy against selected attributes.
    double v2 = 0.0;
    if (options.use_redundancy_term && !selected.empty()) {
      for (size_t s : selected) {
        v2 += options.normalize_redundancy
                  ? red_scale * analysis.NormalizedRedundancy(cand, s)
                  : analysis.PairwiseMi(cand, s);
      }
      v2 /= static_cast<double>(selected.size());
    }
    scores[k] = v1 + v2;
  });
  int best = -1;
  double best_score = inf;
  for (size_t k = 0; k < candidates.size(); ++k) {
    if (scores[k] < best_score) {
      best_score = scores[k];
      best = static_cast<int>(candidates[k]);
    }
  }
  if (score_out != nullptr) *score_out = best_score;
  return best;
}

Explanation RunMcimr(const QueryAnalysis& analysis,
                     const std::vector<size_t>& candidate_indices,
                     const McimrOptions& options) {
  MESA_SPAN("mcimr");
  Explanation ex;
  ex.base_cmi = analysis.BaseCmi();
  ex.final_cmi = ex.base_cmi;

  std::vector<size_t> selected;
  std::vector<size_t> rejected;  // identification-guard rejections
  double current_cmi = ex.base_cmi;
  for (size_t iter = 0; iter < options.max_size; ++iter) {
    if (current_cmi < options.cmi_floor) break;  // fully explained
    MESA_SPAN("round");
    MESA_COUNT("mcimr/rounds");
    CancelCheckpoint();  // per-round checkpoint

    // Pick the best candidate that does not turn the conditioning set into
    // an exposure identifier (Lemma A.2 applied to sets).
    int next = -1;
    double score = 0.0;
    for (;;) {
      std::vector<size_t> excluded = selected;
      excluded.insert(excluded.end(), rejected.begin(), rejected.end());
      next = NextBestAttribute(analysis, candidate_indices, excluded,
                               options, &score);
      if (next < 0) break;
      if (options.max_identification_fraction > 0.0) {
        std::vector<size_t> tentative = selected;
        tentative.push_back(static_cast<size_t>(next));
        if (analysis.IdentificationFraction(tentative) >
            options.max_identification_fraction) {
          MESA_COUNT("mcimr/identification_rejections");
          rejected.push_back(static_cast<size_t>(next));
          continue;
        }
      }
      break;
    }
    if (next < 0) break;  // candidates exhausted
    size_t idx = static_cast<size_t>(next);

    if (options.responsibility_stopping) {
      // Responsibility test (Lemma 4.2): if O ⟂ E_next | E_selected the
      // newcomer's responsibility is <= 0 — return what we have. On large
      // samples the permutation count drops to the minimum that still
      // resolves alpha = 0.05 (each permutation costs a full O(n) CMI
      // pass; at millions of rows the test's power is not the constraint).
      const CodedVariable& z = analysis.CombinedCode(selected);
      IndependenceOptions ind = options.independence;
      if (analysis.num_rows() > 400'000) {
        ind.num_permutations = std::min<size_t>(ind.num_permutations, 39);
      }
      IndependenceResult test = ConditionalIndependenceTest(
          analysis.outcome(), analysis.attributes()[idx].coded, z, ind);
      if (test.independent) {
        MESA_COUNT("mcimr/responsibility_stops");
        ex.stopped_by_responsibility = true;
        break;
      }
    }

    selected.push_back(idx);
    double cmi_after = analysis.CmiGivenSet(selected);
    double required = std::max(
        options.min_improvement,
        options.min_relative_improvement * ex.base_cmi);
    if (options.responsibility_stopping &&
        cmi_after > current_cmi - required) {
      // No further improvement: reject the newcomer and stop.
      selected.pop_back();
      ex.stopped_by_responsibility = true;
      break;
    }
    ex.trace.push_back({idx, analysis.attributes()[idx].name, score,
                        cmi_after});
    ex.final_cmi = cmi_after;
    current_cmi = cmi_after;
  }

  ex.attribute_indices = selected;
  for (size_t s : selected) {
    ex.attribute_names.push_back(analysis.attributes()[s].name);
  }
  return ex;
}

}  // namespace mesa
