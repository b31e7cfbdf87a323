#ifndef MESA_CORE_CANDIDATES_H_
#define MESA_CORE_CANDIDATES_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "info/mutual_information.h"
#include "missing/ipw.h"
#include "missing/selection_bias.h"
#include "query/query_spec.h"
#include "stats/discretizer.h"
#include "table/table.h"

namespace mesa {

/// One candidate confounding attribute, prepared for estimation: coded over
/// the context-filtered rows, with selection-bias diagnosis and IPW weights
/// when needed.
struct PreparedAttribute {
  std::string name;
  CodedVariable coded;
  double missing_fraction = 0.0;
  bool from_kg = false;
  bool selection_biased = false;
  /// IPW weights over context rows; empty when unweighted estimation is
  /// appropriate (no nulls, no detected bias, or weighting disabled).
  std::vector<double> weights;
};

/// Options controlling preparation.
struct PrepareOptions {
  DiscretizerOptions discretizer;
  /// Run the selection-bias detector on attributes with missing values and
  /// attach IPW weights where it fires (Section 3.2). Disabling this gives
  /// the complete-case estimator everywhere.
  bool handle_selection_bias = true;
  SelectionBiasOptions bias;
  IpwOptions ipw;  ///< covariates default to {exposure, outcome} if empty.
  EntropyOptions entropy;
};

/// Everything the explanation algorithms need about one query over one
/// (possibly KG-augmented) table: the context-filtered rows, coded outcome/
/// exposure, prepared candidates, and cached information-theoretic scores.
/// All scores are conditioned on the query context C by construction
/// (estimation happens over the rows matching C).
class QueryAnalysis {
 public:
  /// Prepares the analysis. `candidates` lists candidate attribute column
  /// names (the paper's A = E ∪ T \ {O, T}); `kg_columns` marks which of
  /// them came from external extraction (for reporting only).
  ///
  /// Lifetime: when the query context matches every row of `table`, the
  /// analysis reads `table` itself instead of a copy, so `table` must
  /// outlive the analysis and every copy or move of it, unmodified. A
  /// context that restricts the rows is gathered into a table the analysis
  /// owns. The rvalue overload is deleted so a temporary is never borrowed.
  static Result<QueryAnalysis> Prepare(
      const Table& table, const QuerySpec& query,
      const std::vector<std::string>& candidates,
      const std::vector<std::string>& kg_columns = {},
      const PrepareOptions& options = {});
  static Result<QueryAnalysis> Prepare(
      Table&& table, const QuerySpec& query,
      const std::vector<std::string>& candidates,
      const std::vector<std::string>& kg_columns = {},
      const PrepareOptions& options = {}) = delete;

  /// Rows matching the query context.
  size_t num_rows() const { return n_; }
  /// The context-filtered rows: the caller's table when the context matches
  /// every row, otherwise the analysis's own gather of the matching rows.
  const Table& context_table() const { return *context_table_; }
  const QuerySpec& query() const { return query_; }
  const PrepareOptions& options() const { return options_; }

  const CodedVariable& outcome() const { return outcome_; }
  const CodedVariable& exposure() const { return exposure_; }

  const std::vector<PreparedAttribute>& attributes() const {
    return attributes_;
  }

  /// I(O; T | C) — the unconditioned association to be explained.
  double BaseCmi() const { return base_cmi_; }

  /// I(O; T | C, E_i) for a single candidate (cached).
  double CmiGivenAttribute(size_t index) const;

  /// I(O; T | C, E) for a set of candidates, estimated on the joint
  /// conditioning code (cached by index set).
  double CmiGivenSet(const std::vector<size_t>& indices) const;

  /// The composite conditioning code over a candidate index set, built
  /// once per distinct set and cached for the analysis lifetime. Every
  /// consumer of a set encoding (CmiGivenSet, IdentificationFraction,
  /// MCIMR's responsibility re-checks, the baselines) goes through here,
  /// so the CombinePair fold — and the content fingerprint the
  /// sufficient-statistics cache keys on — is computed once per set
  /// instead of once per use. Singletons alias the prepared attribute's
  /// code; the empty set is the constant (trivial) code. The reference
  /// stays valid as long as the analysis lives.
  const CodedVariable& CombinedCode(const std::vector<size_t>& indices) const;

  /// I(E_a; E_b) between candidates (cached, symmetric).
  double PairwiseMi(size_t a, size_t b) const;

  /// H(E_i) of a candidate (cached); used to normalise redundancy.
  double AttributeEntropy(size_t i) const;

  /// Normalised redundancy I(E_a;E_b) / min(H(E_a), H(E_b)) in [0, ~1] —
  /// the NMIFS refinement of the MRMR redundancy term. Raw MI between two
  /// attributes that are both functions of a common key (two properties of
  /// Country) is structurally inflated; normalising keeps the redundancy
  /// penalty comparable across attribute granularities.
  double NormalizedRedundancy(size_t a, size_t b) const;

  /// True when candidate `i` is an exposure trap (Lemma A.2): it
  /// approximately functionally determines the exposure or one of its
  /// components (H(T|E) below max(0.05 bits, 0.15·H(T))), or it identifies
  /// the exposure on more than 20% of rows (small pure strata; large pure
  /// strata are exempt for low-cardinality exposures). Such attributes
  /// "explain" any correlation trivially and are excluded both by online
  /// pruning and inside NextBestAtt — which is why MCIMR without pruning
  /// (MESA-) still produces sound explanations, matching the paper's
  /// "pruning has little effect on quality". Cached per candidate.
  bool IsExposureTrap(size_t i) const;

  /// Per-component exposure codes (size >= 1; [0] is the primary).
  const std::vector<CodedVariable>& exposure_components() const {
    return exposure_components_;
  }

  /// Fraction of (jointly observed) rows living in strata of the combined
  /// conditioning code that contain a single exposure value. In such strata
  /// the set *identifies* T, so Lemma A.2 applies locally and the set
  /// "explains" trivially. Both MCIMR and Brute-Force reject conditioning
  /// sets whose identification fraction is too high (cached by index set).
  double IdentificationFraction(const std::vector<size_t>& indices) const;

  /// Exact count of distinct CMI/MI estimator evaluations cached by this
  /// analysis; lets the benchmarks report estimator work the way the
  /// paper does. Under concurrent scoring two threads may race to compute
  /// the same (pure, identical) entry, but only the store that wins the
  /// cache insert is counted, so the count equals the serial count at any
  /// thread count (asserted in tests/parallel_test.cc).
  size_t estimator_evaluations() const {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    return evaluations_;
  }

 private:
  /// Combined IPW weights for a set (product of each member's weights;
  /// empty if no member is weighted).
  std::vector<double> CombinedWeights(const std::vector<size_t>& indices) const;

  /// Points at the caller's table or at *owned_context_. The gather lives
  /// on the heap, so moving the analysis keeps the pointer valid.
  const Table* context_table_ = nullptr;
  std::shared_ptr<const Table> owned_context_;
  QuerySpec query_;
  PrepareOptions options_;
  size_t n_ = 0;
  CodedVariable outcome_;
  CodedVariable exposure_;
  std::vector<CodedVariable> exposure_components_;
  std::vector<PreparedAttribute> attributes_;
  double base_cmi_ = 0.0;

  /// Guards every cache below. The scoring loops of MCIMR and the
  /// baselines run concurrently over one analysis; lookups and inserts are
  /// serialized but the estimator computations themselves run outside the
  /// lock (a lost race recomputes the same pure value — harmless).
  /// shared_ptr keeps QueryAnalysis movable.
  mutable std::shared_ptr<std::mutex> cache_mu_ =
      std::make_shared<std::mutex>();
  mutable std::vector<double> single_cmi_cache_;
  mutable std::vector<double> entropy_cache_;
  mutable std::unordered_map<uint64_t, double> pair_mi_cache_;
  mutable std::unordered_map<std::string, double> set_cmi_cache_;
  /// Composite conditioning codes by sorted index-set key ("" = trivial).
  /// shared_ptr so returned references survive rehashing and moves.
  mutable std::unordered_map<std::string,
                             std::shared_ptr<const CodedVariable>>
      combined_code_cache_;
  mutable std::unordered_map<std::string, double> ident_cache_;
  mutable std::vector<int8_t> trap_cache_;  ///< -1 unknown, 0 no, 1 yes
  mutable size_t evaluations_ = 0;
};

}  // namespace mesa

#endif  // MESA_CORE_CANDIDATES_H_
