#include "missing/bias_memo.h"

#include <bit>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "info/info_cache.h"

namespace mesa {

namespace {

// A verdict costs one unit plus its coefficients; 4096 units per shard
// holds tens of thousands of verdicts in a few MB.
constexpr uint64_t kBudgetPerShard = 4096;

ShardedLruCache<BiasVerdict>* Memo() {
  static auto* memo = [] {
    info_cache::OnClear(&ClearBiasMemo);
    return new ShardedLruCache<BiasVerdict>(kBudgetPerShard);
  }();
  return memo;
}

uint64_t MixDouble(uint64_t h, double v) {
  return MixSeed(h, std::bit_cast<uint64_t>(v));
}

uint64_t MixDiscretizer(uint64_t h, const DiscretizerOptions& options) {
  h = MixSeed(h, static_cast<uint64_t>(options.strategy));
  h = MixSeed(h, options.num_bins);
  return MixSeed(h, options.categorical_threshold);
}

uint64_t MixColumn(uint64_t h, const Table& table, const std::string& name) {
  Result<const Column*> col = table.ColumnByName(name);
  // An absent column (a covariate the table lacks) only matters if a fit
  // runs, which then fails without inserting anything.
  return MixSeed(h, col.ok() ? (*col)->ContentFingerprint() : 0);
}

}  // namespace

uint64_t BiasMemoQueryKey(const Table& table, const std::string& outcome,
                          const std::vector<std::string>& exposures,
                          const DiscretizerOptions& coding,
                          const SelectionBiasOptions& bias,
                          const IpwOptions& ipw) {
  uint64_t h = MixSeed(0x42494153u, exposures.size());  // "BIAS"
  h = MixColumn(h, table, outcome);
  for (const std::string& name : exposures) h = MixColumn(h, table, name);
  h = MixSeed(h, ipw.covariates.size());
  for (const std::string& name : ipw.covariates) h = MixColumn(h, table, name);
  h = MixDiscretizer(h, coding);
  h = MixDiscretizer(h, bias.discretizer);
  const IndependenceOptions& ci = bias.independence;
  h = MixSeed(h, static_cast<uint64_t>(ci.method));
  h = MixSeed(h, ci.num_permutations);
  h = MixDouble(h, ci.alpha);
  h = MixSeed(h, ci.seed);
  h = MixDouble(h, ci.cmi_epsilon);
  h = MixDouble(h, ipw.clip);
  h = MixSeed(h, ipw.logistic.max_iterations);
  h = MixDouble(h, ipw.logistic.tolerance);
  return MixDouble(h, ipw.logistic.l2_penalty);
}

uint64_t BiasMemoKey(uint64_t query_key, const Column& attribute) {
  return MixSeed(query_key, attribute.ContentFingerprint());
}

bool LookupBiasVerdict(uint64_t key, BiasVerdict* verdict) {
  if (Memo()->Lookup(key, verdict)) {
    MESA_COUNT("missing/bias_memo/hit");
    return true;
  }
  MESA_COUNT("missing/bias_memo/miss");
  return false;
}

void InsertBiasVerdict(uint64_t key, BiasVerdict verdict) {
  const uint64_t cost = 1 + verdict.coefficients.size();
  Memo()->Insert(key, std::move(verdict), cost);
}

void ClearBiasMemo() { Memo()->Clear(); }

}  // namespace mesa
