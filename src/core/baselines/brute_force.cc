#include "core/baselines/brute_force.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"

#include "common/parallel.h"

namespace mesa {

namespace {

// C(n, k) with saturation.
size_t Choose(size_t n, size_t k, size_t cap) {
  size_t result = 1;
  for (size_t i = 0; i < k; ++i) {
    if (result > cap) return cap + 1;
    result = result * (n - i) / (i + 1);
  }
  return result;
}

// Advances `pick` to the next k-combination of [0, n); false when done.
bool NextCombination(std::vector<size_t>& pick, size_t n) {
  const size_t k = pick.size();
  for (size_t ii = k; ii > 0; --ii) {
    size_t i = ii - 1;
    if (pick[i] < i + n - k) {
      ++pick[i];
      for (size_t j = i + 1; j < k; ++j) pick[j] = pick[j - 1] + 1;
      return true;
    }
  }
  return false;
}

}  // namespace

Result<Explanation> RunBruteForce(const QueryAnalysis& analysis,
                                  const std::vector<size_t>& candidate_indices,
                                  const BruteForceOptions& options) {
  MESA_SPAN("baseline_brute_force");
  const size_t n = candidate_indices.size();
  size_t total = 0;
  for (size_t k = 1; k <= std::min(options.max_size, n); ++k) {
    total += Choose(n, k, options.max_subsets);
    if (total > options.max_subsets) {
      return Status::FailedPrecondition(
          "brute force infeasible: more than " +
          std::to_string(options.max_subsets) + " subsets over " +
          std::to_string(n) + " candidates");
    }
  }

  Explanation best;
  best.base_cmi = analysis.BaseCmi();
  best.final_cmi = best.base_cmi;
  double best_objective = std::numeric_limits<double>::infinity();
  const double inf = std::numeric_limits<double>::infinity();

  // Enumerate subsets of each size k via the combinations odometer, in
  // blocks: each block's subsets are scored on the thread pool, then the
  // winner is folded in serially in enumeration order — identical result
  // to the fully serial scan.
  constexpr size_t kBlock = 1024;
  std::vector<std::vector<size_t>> block;
  std::vector<double> block_cmi;
  block.reserve(kBlock);
  auto flush_block = [&] {
    if (block.empty()) return;
    MESA_COUNT_N("baseline/brute_force_subsets", block.size());
    block_cmi.assign(block.size(), inf);
    ParallelFor(0, block.size(), [&](size_t bi) {
      const std::vector<size_t>& subset = block[bi];
      if (options.max_identification_fraction > 0.0 &&
          analysis.IdentificationFraction(subset) >
              options.max_identification_fraction) {
        return;  // guarded out; stays +inf
      }
      block_cmi[bi] = analysis.CmiGivenSet(subset);
    });
    for (size_t bi = 0; bi < block.size(); ++bi) {
      if (block_cmi[bi] == inf) continue;
      double objective =
          block_cmi[bi] * static_cast<double>(block[bi].size());
      if (objective < best_objective - 1e-12) {
        best_objective = objective;
        best.attribute_indices = block[bi];
        best.final_cmi = block_cmi[bi];
      }
    }
    block.clear();
  };
  std::vector<size_t> pick;
  for (size_t k = 1; k <= std::min(options.max_size, n); ++k) {
    pick.assign(k, 0);
    for (size_t i = 0; i < k; ++i) pick[i] = i;
    for (;;) {
      std::vector<size_t> subset(k);
      for (size_t i = 0; i < k; ++i) subset[i] = candidate_indices[pick[i]];
      block.push_back(std::move(subset));
      if (block.size() >= kBlock) flush_block();
      if (!NextCombination(pick, n)) break;
    }
  }
  flush_block();

  best.attribute_names.clear();
  for (size_t s : best.attribute_indices) {
    best.attribute_names.push_back(analysis.attributes()[s].name);
  }
  return best;
}

}  // namespace mesa
