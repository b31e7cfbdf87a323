#include "core/candidates.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <set>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "info/info_cache.h"
#include "missing/bias_memo.h"
#include "missing/mask.h"

namespace mesa {

namespace {

// Cache key of a *sorted* candidate index set ("" for the empty set).
std::string SetKey(const std::vector<size_t>& sorted) {
  std::string key;
  for (size_t i : sorted) {
    key += std::to_string(i);
    key += ',';
  }
  return key;
}

}  // namespace

Result<QueryAnalysis> QueryAnalysis::Prepare(
    const Table& table, const QuerySpec& query,
    const std::vector<std::string>& candidates,
    const std::vector<std::string>& kg_columns, const PrepareOptions& options) {
  MESA_SPAN("qa_prepare");
  MESA_RETURN_IF_ERROR(query.Validate(table));

  QueryAnalysis qa;
  qa.query_ = query;
  qa.options_ = options;

  // Condition on C by restricting to matching rows.
  {
    MESA_SPAN("context");
    MESA_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                          query.context.MatchingRows(table));
    if (rows.empty()) {
      return Status::InvalidArgument("query context matches no rows");
    }
    if (rows.size() == table.num_rows()) {
      qa.context_table_ = &table;  // C matches every row: no copy
    } else {
      qa.owned_context_ = std::make_shared<const Table>(table.TakeRows(rows));
      qa.context_table_ = qa.owned_context_.get();
    }
    qa.n_ = rows.size();
  }
  const Table& ctx = *qa.context_table_;

  {
    MESA_SPAN("discretize");
    MESA_ASSIGN_OR_RETURN(
        Discretized o,
        DiscretizeColumn(ctx, query.outcome,
                         options.discretizer));
    qa.outcome_ = CodedVariable{std::move(o.codes), o.cardinality};
    // The effective exposure is the composite of all grouping attributes;
    // the components are kept for per-component trap tests.
    for (const std::string& name : query.AllExposures()) {
      MESA_ASSIGN_OR_RETURN(
          Discretized t,
          DiscretizeColumn(ctx, name, options.discretizer));
      qa.exposure_components_.push_back(
          CodedVariable{std::move(t.codes), t.cardinality});
    }
    std::vector<const CodedVariable*> ptrs;
    for (const auto& p : qa.exposure_components_) ptrs.push_back(&p);
    qa.exposure_ = CombineAll(ptrs, qa.n_);
  }

  std::set<std::string> kg_set(kg_columns.begin(), kg_columns.end());

  // IPW covariates default to the query attributes themselves (always
  // observed in the base data).
  IpwOptions ipw = options.ipw;
  if (ipw.covariates.empty()) {
    ipw.covariates = {query.exposure, query.outcome};
  }

  // Built at most once per Prepare, the first time a candidate needs it,
  // and shared by every candidate: the memo's key part for this query,
  // and the IPW design (the same covariates over the same rows for every
  // weighted attribute).
  const bool use_memo = info_cache::Enabled();
  std::once_flag key_once;
  uint64_t query_key = 0;
  auto shared_query_key = [&]() {
    std::call_once(key_once, [&] {
      query_key = BiasMemoQueryKey(ctx, query.outcome,
                                   query.AllExposures(), options.discretizer,
                                   options.bias, ipw);
    });
    return query_key;
  };
  std::once_flag design_once;
  std::optional<Result<IpwDesign>> design;
  auto shared_design = [&]() -> const Result<IpwDesign>& {
    std::call_once(design_once, [&] {
      MESA_SPAN("ipw_design");
      design.emplace(IpwDesign::Build(ctx, ipw.covariates));
    });
    return *design;
  };

  // Selection-bias verdict and IPW weights of one candidate with nulls
  // (Section 3.2), through the content-addressed memo: a hit skips the
  // bias tests and the fit, keeping one predict pass over the design.
  auto handle_missing = [&](const std::string& name, const Column& col,
                            PreparedAttribute* attr) -> Status {
    BiasVerdict verdict;
    uint64_t key = 0;
    bool hit = false;
    if (use_memo) {
      key = BiasMemoKey(shared_query_key(), col);
      hit = LookupBiasVerdict(key, &verdict);
    }
    if (!hit) {
      MESA_SPAN("selection_bias");
      SelectionBiasOptions bias = options.bias;
      bias.outcome_codes = &qa.outcome_;
      bias.exposure_codes = &qa.exposure_;
      MESA_ASSIGN_OR_RETURN(
          SelectionBiasReport report,
          DetectSelectionBias(ctx, name, query.outcome,
                              query.exposure, bias));
      verdict.biased = report.biased;
    }
    attr->selection_biased = verdict.biased;
    if (verdict.biased) {
      std::vector<uint8_t> r = MissingnessIndicator(col);
      if (!TrivialIpwWeights(r, &attr->weights)) {
        const Result<IpwDesign>& x = shared_design();
        MESA_RETURN_IF_ERROR(x.status());
        LogisticModel model(verdict.coefficients);
        if (!hit) {
          MESA_ASSIGN_OR_RETURN(model, x->Fit(r, ipw.logistic));
          verdict.coefficients = model.coefficients();
        }
        attr->weights = x->Weights(r, model, ipw.clip);
      }
    }
    if (use_memo && !hit) InsertBiasVerdict(key, std::move(verdict));
    return Status::OK();
  };

  // Candidate preparation (discretization, selection-bias detection, IPW
  // weight fitting) is independent per attribute: fan out over the pool
  // into order-stable slots, then assemble serially. The first error in
  // candidate order wins, matching the serial loop.
  std::vector<std::string> names;
  for (const std::string& name : candidates) {
    if (name == query.outcome || query.IsExposure(name)) continue;
    names.push_back(name);
  }
  MESA_COUNT_N("qa/candidates_prepared", names.size());
  std::vector<Status> statuses(names.size());
  std::vector<PreparedAttribute> prepared(names.size());
  ParallelFor(0, names.size(), [&](size_t ci) {
    CancelCheckpoint();  // per-candidate preparation checkpoint
    statuses[ci] = [&]() -> Status {
      const std::string& name = names[ci];
      MESA_ASSIGN_OR_RETURN(const Column* col,
                            ctx.ColumnByName(name));
      PreparedAttribute attr;
      attr.name = name;
      attr.from_kg = kg_set.count(name) > 0;
      attr.missing_fraction = col->null_fraction();
      {
        MESA_SPAN("discretize");
        MESA_ASSIGN_OR_RETURN(
            Discretized d,
            DiscretizeColumn(ctx, name,
                             options.discretizer));
        attr.coded = CodedVariable{std::move(d.codes), d.cardinality};
      }
      if (options.handle_selection_bias && col->null_count() > 0) {
        MESA_RETURN_IF_ERROR(handle_missing(name, *col, &attr));
      }
      prepared[ci] = std::move(attr);
      return Status::OK();
    }();
  });
  for (const Status& st : statuses) {
    MESA_RETURN_IF_ERROR(st);
  }
  for (PreparedAttribute& attr : prepared) {
    qa.attributes_.push_back(std::move(attr));
  }

  // I(O;T|C): context already applied, so condition on the trivial code.
  qa.base_cmi_ = ConditionalMutualInformation(qa.outcome_, qa.exposure_,
                                              qa.CombinedCode({}), nullptr,
                                              options.entropy);
  qa.single_cmi_cache_.assign(qa.attributes_.size(),
                              std::numeric_limits<double>::quiet_NaN());
  qa.entropy_cache_.assign(qa.attributes_.size(),
                           std::numeric_limits<double>::quiet_NaN());
  qa.trap_cache_.assign(qa.attributes_.size(), -1);
  return qa;
}

double QueryAnalysis::CmiGivenAttribute(size_t index) const {
  MESA_CHECK(index < attributes_.size());
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    double cached = single_cmi_cache_[index];
    if (!std::isnan(cached)) {
      MESA_COUNT("qa/single_cmi/hit");
      return cached;
    }
  }
  MESA_COUNT("qa/single_cmi/miss");
  const PreparedAttribute& attr = attributes_[index];
  const std::vector<double>* w =
      attr.weights.empty() ? nullptr : &attr.weights;
  double v = ConditionalMutualInformation(outcome_, exposure_, attr.coded, w,
                                          options_.entropy);
  std::lock_guard<std::mutex> lock(*cache_mu_);
  // Two threads may race to compute the same entry; only the first store
  // counts, so evaluations_ is exactly the number of distinct cached
  // computations regardless of thread count. (The racers computed the
  // same deterministic value, so either store is fine.)
  if (std::isnan(single_cmi_cache_[index])) {
    ++evaluations_;
    single_cmi_cache_[index] = v;
  }
  return v;
}

std::vector<double> QueryAnalysis::CombinedWeights(
    const std::vector<size_t>& indices) const {
  bool any = false;
  for (size_t i : indices) {
    if (!attributes_[i].weights.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return {};
  std::vector<double> w(n_, 1.0);
  for (size_t i : indices) {
    const auto& aw = attributes_[i].weights;
    if (aw.empty()) continue;
    for (size_t r = 0; r < n_; ++r) w[r] *= aw[r];
  }
  return w;
}

const CodedVariable& QueryAnalysis::CombinedCode(
    const std::vector<size_t>& indices) const {
  // Singletons alias the prepared code (no fold, and the memoized
  // fingerprint lives with the attribute).
  if (indices.size() == 1) {
    MESA_CHECK(indices[0] < attributes_.size());
    return attributes_[indices[0]].coded;
  }
  std::vector<size_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  std::string key = SetKey(sorted);
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    auto it = combined_code_cache_.find(key);
    if (it != combined_code_cache_.end()) {
      MESA_COUNT("qa/combined_code/hit");
      return *it->second;
    }
  }
  MESA_COUNT("qa/combined_code/miss");
  auto code = std::make_shared<CodedVariable>();
  if (sorted.empty()) {
    *code = ConstantCode(n_);
  } else {
    std::vector<const CodedVariable*> parts;
    parts.reserve(sorted.size());
    for (size_t i : sorted) parts.push_back(&attributes_[i].coded);
    *code = CombineAll(parts, n_);
  }
  std::lock_guard<std::mutex> lock(*cache_mu_);
  // A lost compute race keeps the first insert (same pure value).
  auto [it, inserted] = combined_code_cache_.emplace(
      std::move(key), std::move(code));
  (void)inserted;
  return *it->second;
}

double QueryAnalysis::CmiGivenSet(const std::vector<size_t>& indices) const {
  if (indices.empty()) return base_cmi_;
  if (indices.size() == 1) return CmiGivenAttribute(indices[0]);
  std::vector<size_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  std::string key = SetKey(sorted);
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    auto it = set_cmi_cache_.find(key);
    if (it != set_cmi_cache_.end()) {
      MESA_COUNT("qa/set_cmi/hit");
      return it->second;
    }
  }
  MESA_COUNT("qa/set_cmi/miss");

  const CodedVariable& z = CombinedCode(sorted);
  std::vector<double> w = CombinedWeights(sorted);
  double v = ConditionalMutualInformation(
      outcome_, exposure_, z, w.empty() ? nullptr : &w, options_.entropy);
  std::lock_guard<std::mutex> lock(*cache_mu_);
  // Count only the insert that wins a compute race (see CmiGivenAttribute).
  auto [it, inserted] = set_cmi_cache_.emplace(std::move(key), v);
  if (inserted) ++evaluations_;
  return it->second;
}

double QueryAnalysis::AttributeEntropy(size_t i) const {
  MESA_CHECK(i < attributes_.size());
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    double cached = entropy_cache_[i];
    if (!std::isnan(cached)) {
      MESA_COUNT("qa/entropy/hit");
      return cached;
    }
  }
  MESA_COUNT("qa/entropy/miss");
  const PreparedAttribute& attr = attributes_[i];
  const std::vector<double>* w =
      attr.weights.empty() ? nullptr : &attr.weights;
  double h = Entropy(attr.coded, w, options_.entropy);
  std::lock_guard<std::mutex> lock(*cache_mu_);
  entropy_cache_[i] = h;
  return h;
}

double QueryAnalysis::NormalizedRedundancy(size_t a, size_t b) const {
  double h = std::min(AttributeEntropy(a), AttributeEntropy(b));
  if (h < 1e-9) return 0.0;
  return PairwiseMi(a, b) / h;
}

bool QueryAnalysis::IsExposureTrap(size_t i) const {
  MESA_CHECK(i < attributes_.size());
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    if (trap_cache_[i] >= 0) {
      MESA_COUNT("qa/trap/hit");
      return trap_cache_[i] != 0;
    }
  }
  MESA_COUNT("qa/trap/miss");
  const PreparedAttribute& attr = attributes_[i];
  const std::vector<double>* w =
      attr.weights.empty() ? nullptr : &attr.weights;
  bool trap = false;

  if (attr.coded.cardinality <= 1) {
    trap = true;  // constant: useless, flagged here for uniformity
  }

  // Approximate FD against the outcome, the composite exposure, and every
  // exposure component (a copy of one grouping attribute must not "explain"
  // a composite grouping).
  constexpr double kFdEpsilon = 0.05;
  constexpr double kFdRatio = 0.15;
  auto fd_against = [&](const CodedVariable& q) {
    double h_q = Entropy(q, nullptr, options_.entropy);
    double h_q_given_e = ConditionalEntropy(q, attr.coded, w,
                                            options_.entropy);
    return h_q_given_e < std::max(kFdEpsilon, kFdRatio * h_q);
  };
  if (!trap) {
    trap = fd_against(outcome_) || fd_against(exposure_);
    for (size_t c = 0; !trap && c < exposure_components_.size(); ++c) {
      trap = fd_against(exposure_components_[c]);
    }
  }

  // Local identification test against the composite exposure.
  constexpr double kMaxIdentification = 0.20;
  if (!trap) {
    trap = IdentificationFraction({i}) > kMaxIdentification;
  }

  std::lock_guard<std::mutex> lock(*cache_mu_);
  trap_cache_[i] = trap ? 1 : 0;
  return trap;
}

double QueryAnalysis::IdentificationFraction(
    const std::vector<size_t>& indices) const {
  if (indices.empty()) return 0.0;
  std::vector<size_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  std::string key = SetKey(sorted);
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    auto it = ident_cache_.find(key);
    if (it != ident_cache_.end()) {
      MESA_COUNT("qa/ident/hit");
      return it->second;
    }
  }
  MESA_COUNT("qa/ident/miss");

  const CodedVariable& z = CombinedCode(sorted);
  // Per stratum code: T of its first row (-2 once impure) and its row count.
  const size_t strata =
      static_cast<size_t>(std::max<int32_t>(0, z.cardinality));
  std::vector<int32_t> stratum_t(strata, -1);
  std::vector<size_t> stratum_rows(strata, 0);
  size_t observed = 0;
  for (size_t r = 0; r < n_; ++r) {
    const int32_t zc = z.codes[r];
    const int32_t tc = exposure_.codes[r];
    if (zc < 0 || tc < 0) continue;
    ++observed;
    const size_t s = static_cast<size_t>(zc);
    MESA_DCHECK(s < strata);
    if (stratum_rows[s]++ == 0) {
      stratum_t[s] = tc;
    } else if (stratum_t[s] != tc) {
      stratum_t[s] = -2;
    }
  }
  // For a low-cardinality exposure (<= 20 values: continents, airlines,
  // WHO regions) a *large* pure stratum is legitimate explanation —
  // "countries with Africa-level GDP are exactly Africa" — so strata
  // holding >= 5% of the rows are exempt. For high-cardinality exposures
  // (countries, cities, people) every pure stratum is per-value isolation,
  // i.e. row keying, and counts.
  const bool low_card_exposure = exposure_.cardinality <= 20;
  const double small_stratum = 0.05 * static_cast<double>(observed);
  size_t identified = 0;
  for (size_t s = 0; s < strata; ++s) {
    if (stratum_t[s] < 0) continue;  // empty or impure
    if (low_card_exposure &&
        static_cast<double>(stratum_rows[s]) >= small_stratum) {
      continue;
    }
    identified += stratum_rows[s];
  }
  double frac = observed == 0
                    ? 1.0
                    : static_cast<double>(identified) /
                          static_cast<double>(observed);
  std::lock_guard<std::mutex> lock(*cache_mu_);
  ident_cache_.emplace(std::move(key), frac);
  return frac;
}

double QueryAnalysis::PairwiseMi(size_t a, size_t b) const {
  MESA_CHECK(a < attributes_.size() && b < attributes_.size());
  if (a > b) std::swap(a, b);
  uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  {
    std::lock_guard<std::mutex> lock(*cache_mu_);
    auto it = pair_mi_cache_.find(key);
    if (it != pair_mi_cache_.end()) {
      MESA_COUNT("qa/pair_mi/hit");
      return it->second;
    }
  }
  MESA_COUNT("qa/pair_mi/miss");
  // Weighted when either side carries IPW weights (Proposition 3.3's
  // conditions fail exactly when missingness depends on the values).
  std::vector<double> w = CombinedWeights({a, b});
  double v = MutualInformation(attributes_[a].coded, attributes_[b].coded,
                               w.empty() ? nullptr : &w, options_.entropy);
  std::lock_guard<std::mutex> lock(*cache_mu_);
  // Count only the insert that wins a compute race (see CmiGivenAttribute).
  auto [it, inserted] = pair_mi_cache_.emplace(key, v);
  if (inserted) ++evaluations_;
  return it->second;
}

}  // namespace mesa
