#include "core/pruning.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/parallel.h"
#include "info/entropy.h"

namespace mesa {

const char* PruneReasonName(PruneReason reason) {
  switch (reason) {
    case PruneReason::kConstant:
      return "constant";
    case PruneReason::kTooManyMissing:
      return "too_many_missing";
    case PruneReason::kHighEntropy:
      return "high_entropy";
    case PruneReason::kLogicalDependency:
      return "logical_dependency";
    case PruneReason::kLowRelevance:
      return "low_relevance";
  }
  return "?";
}

Result<PruneResult> OfflinePrune(const Table& table,
                                 const std::vector<std::string>& attributes,
                                 const OfflinePruneOptions& options) {
  MESA_SPAN("offline_prune");
  PruneResult result;
  for (const std::string& name : attributes) {
    MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(name));
    const size_t n = col->size();
    const size_t present = n - col->null_count();

    if (col->null_fraction() > options.max_missing_fraction) {
      result.pruned.push_back({name, PruneReason::kTooManyMissing});
      continue;
    }

    // High-entropy filter: near-unique *identifier-like* attributes
    // (wikiID, keys, URLs) — string or native-integer columns. Continuous
    // measurements (double) are naturally unique per entity and exempt;
    // they get binned downstream.
    const bool identifier_like = col->type() != DataType::kDouble;
    // Count distinct values only up to the smallest count that settles
    // both tests below: 2 for "constant", and for identifier-like columns
    // the least d with d >= high_entropy_min_distinct and
    // d > max_distinct_fraction * present (capped at present + 1, which
    // no count reaches).
    size_t limit = 2;
    if (identifier_like) {
      const double settles = std::max(
          static_cast<double>(options.high_entropy_min_distinct),
          std::floor(options.max_distinct_fraction *
                     static_cast<double>(present)) +
              1.0);
      limit = std::max<size_t>(
          limit, settles > static_cast<double>(present)
                     ? present + 1
                     : static_cast<size_t>(settles));
    }
    const size_t distinct = col->DistinctCountAtMost(limit);
    if (distinct <= 1) {
      result.pruned.push_back({name, PruneReason::kConstant});
      continue;
    }
    if (identifier_like &&
        distinct >= options.high_entropy_min_distinct && present > 0 &&
        static_cast<double>(distinct) >
            options.max_distinct_fraction * static_cast<double>(present)) {
      result.pruned.push_back({name, PruneReason::kHighEntropy});
      continue;
    }
    result.kept.push_back(name);
  }
  MESA_COUNT_N("prune/offline_kept", result.kept.size());
  MESA_COUNT_N("prune/offline_pruned", result.pruned.size());
  return result;
}

OnlinePruneResult OnlinePrune(const QueryAnalysis& analysis,
                              const OnlinePruneOptions& options) {
  MESA_SPAN("online_prune");
  OnlinePruneResult result;
  const CodedVariable& o = analysis.outcome();
  const CodedVariable& t = analysis.exposure();
  const EntropyOptions& eopts = analysis.options().entropy;
  const size_t n_rows = analysis.num_rows();
  // Shared trivial conditioning code, hoisted out of the per-attribute
  // lambda (and into the analysis's combined-code cache, so its content
  // fingerprint is computed once for the whole query).
  const CodedVariable& trivial = analysis.CombinedCode({});

  // Each attribute's verdict is independent: classify concurrently into
  // order-stable slots, then assemble kept/pruned lists in attribute order
  // (identical to the serial loop at any thread count).
  constexpr int kKept = -1;
  std::vector<int> verdict(analysis.attributes().size(), kKept);
  ParallelFor(0, analysis.attributes().size(), [&](size_t i) {
    const PreparedAttribute& attr = analysis.attributes()[i];
    const CodedVariable& e = attr.coded;
    if (e.cardinality <= 1) {
      verdict[i] = static_cast<int>(PruneReason::kConstant);
      return;
    }
    const std::vector<double>* w =
        attr.weights.empty() ? nullptr : &attr.weights;

    // Logical dependency / identification with the exposure or outcome
    // — Lemma A.2 and its local form, shared with NextBestAtt through
    // QueryAnalysis (see IsExposureTrap).
    if (analysis.IsExposureTrap(i)) {
      verdict[i] = static_cast<int>(PruneReason::kLogicalDependency);
      return;
    }

    // Low relevance (appendix Relevance Test): (O ⟂ E | C) and
    // (O ⟂ E | C, T) imply E cannot change I(O;T|C). The thresholds are
    // bias-adjusted: the plug-in (C)MI of independent variables is
    // biased upward by ~ K_z (K_x - 1)(K_y - 1) / (2 N ln 2), so an
    // attribute only counts as relevant when it clears chance level.
    const double ln2 = 0.6931471805599453;
    double cells = static_cast<double>(e.cardinality - 1) *
                   static_cast<double>(o.cardinality - 1);
    double bias_marginal =
        cells / (2.0 * static_cast<double>(n_rows) * ln2);
    double bias_cond = bias_marginal * static_cast<double>(t.cardinality);
    double mi_oe = ConditionalMutualInformation(o, e, trivial, w, eopts);
    double cmi_oe_t = ConditionalMutualInformation(o, e, t, w, eopts);
    if (mi_oe < options.relevance_epsilon + bias_marginal &&
        cmi_oe_t < options.relevance_epsilon + bias_cond) {
      verdict[i] = static_cast<int>(PruneReason::kLowRelevance);
      return;
    }
  });
  for (size_t i = 0; i < verdict.size(); ++i) {
    if (verdict[i] == kKept) {
      result.kept_indices.push_back(i);
    } else {
      result.pruned.push_back({analysis.attributes()[i].name,
                               static_cast<PruneReason>(verdict[i])});
    }
  }
  MESA_COUNT_N("prune/online_kept", result.kept_indices.size());
  MESA_COUNT_N("prune/online_pruned", result.pruned.size());
  return result;
}

}  // namespace mesa
