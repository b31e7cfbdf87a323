#include "core/baselines/hypdb.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/baselines/brute_force.h"
#include "core/responsibility.h"

namespace mesa {

Result<Explanation> RunHypDb(const QueryAnalysis& analysis,
                             const std::vector<size_t>& candidate_indices,
                             const HypDbOptions& options) {
  MESA_SPAN("baseline_hypdb");
  // Cap the candidate pool by uniform sampling, as the paper did to make
  // HypDB terminate.
  std::vector<size_t> pool = candidate_indices;
  if (pool.size() > options.max_attributes) {
    Rng rng(options.sample_seed);
    rng.Shuffle(pool);
    pool.resize(options.max_attributes);
    std::sort(pool.begin(), pool.end());
  }

  // Confounder criteria: E must be associated with T, and with O given T.
  const CodedVariable& o = analysis.outcome();
  const CodedVariable& t = analysis.exposure();
  const EntropyOptions& eopts = analysis.options().entropy;
  const CodedVariable& trivial = analysis.CombinedCode({});

  // Confounder criteria: E associated with T and with O (marginally — a
  // group-level attribute has no within-T variation, so a conditional test
  // against T would reject every true confounder). Thresholds are adjusted
  // for the plug-in MI's chance level ~ (K_e-1)(K_x-1) / (2 N ln 2).
  const double ln2 = 0.6931471805599453;
  const double n = static_cast<double>(t.codes.size());
  // The two dependence tests are independent per attribute; evaluate them
  // concurrently and collect the survivors in pool order.
  std::vector<char> passes(pool.size(), 0);
  ParallelFor(0, pool.size(), [&](size_t i) {
    const PreparedAttribute& attr = analysis.attributes()[pool[i]];
    const std::vector<double>* w =
        attr.weights.empty() ? nullptr : &attr.weights;
    double ke = std::max(1, attr.coded.cardinality - 1);
    double bias_t = ke * std::max(1, t.cardinality - 1) / (2.0 * n * ln2);
    double bias_o = ke * std::max(1, o.cardinality - 1) / (2.0 * n * ln2);
    double mi_et =
        ConditionalMutualInformation(attr.coded, t, trivial, w, eopts);
    if (mi_et <= options.dependence_epsilon + bias_t) return;
    double mi_eo =
        ConditionalMutualInformation(attr.coded, o, trivial, w, eopts);
    if (mi_eo <= options.dependence_epsilon + bias_o) return;
    passes[i] = 1;
  });
  std::vector<size_t> confounders;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (passes[i]) confounders.push_back(pool[i]);
  }

  Explanation ex;
  ex.base_cmi = analysis.BaseCmi();
  ex.final_cmi = ex.base_cmi;
  if (confounders.empty()) return ex;

  // Exponential subset search over the confounders for the best joint
  // conditioning set. To keep the *this* process from running 10 hours,
  // trim the pool to the strongest 18 individual contributors first when
  // necessary — the search over subsets is still exponential in that pool.
  std::vector<size_t> search_pool = confounders;
  constexpr size_t kMaxSearchPool = 18;
  if (search_pool.size() > kMaxSearchPool) {
    std::vector<std::pair<double, size_t>> scored;
    for (size_t idx : search_pool) {
      scored.emplace_back(analysis.CmiGivenAttribute(idx), idx);
    }
    std::sort(scored.begin(), scored.end());
    search_pool.clear();
    for (size_t i = 0; i < kMaxSearchPool; ++i) {
      search_pool.push_back(scored[i].second);
    }
    std::sort(search_pool.begin(), search_pool.end());
  }

  BruteForceOptions bf;
  bf.max_size = options.max_size;
  bf.max_subsets = 3'000'000;
  MESA_ASSIGN_OR_RETURN(Explanation best,
                        RunBruteForce(analysis, search_pool, bf));
  if (best.final_cmi >= best.base_cmi) return ex;  // nothing helped

  // Rank the chosen attributes by responsibility (descending), the order
  // HypDB reports confounders in.
  std::vector<AttributeResponsibility> resp =
      ComputeResponsibilities(analysis, best.attribute_indices);
  Explanation out;
  out.base_cmi = best.base_cmi;
  out.final_cmi = best.final_cmi;
  for (const auto& r : resp) {
    out.attribute_indices.push_back(r.attribute_index);
    out.attribute_names.push_back(r.name);
  }
  return out;
}

}  // namespace mesa
