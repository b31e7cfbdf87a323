#ifndef MESA_INFO_INFO_CACHE_H_
#define MESA_INFO_INFO_CACHE_H_

/// The sufficient-statistics cache shared by every information-theoretic
/// estimator (entropy, conditional entropy, MI, CMI). Two layers, both
/// sharded LRU maps keyed on content fingerprints
/// (CodedVariable::fingerprint(), weights hashed with StableHash64Bytes):
///
///   1. a *scalar memo* — finished entropy/MI/CMI doubles keyed on the
///      exact expression (function tag, operand fingerprints, weights
///      fingerprint, EntropyOptions). A repeat of an identical call
///      returns the stored double: bit-identical by construction.
///
///   2. a *joint-cube cache* — the sparse (x, y, z) count cube a CMI/MI
///      evaluation builds anyway, keyed on the *unordered* set of axis
///      fingerprints. A later evaluation over the same three variables in
///      any partition — I(O;E|T) after I(O;T|E), say — repacks the cached
///      cube into its own layout and derives its entropy terms by
///      projection, skipping the O(rows) counting scan. Because the
///      repacked entries are sorted into exactly the order a fresh build
///      would produce, and the cell counts are order-independent sums of
///      the same row weights, the derived result is bit-identical to a
///      cache-off evaluation (asserted in tests/info_cache_test.cc at
///      1/2/8 threads).
///
/// Configuration: the MESA_INFO_CACHE environment variable — "OFF"/"0"
/// disables both layers entirely (the escape hatch; results are
/// identical, only time and memory change), a number sets the cube
/// budget in MB. SetEnabled()/SetCapacityForTest() override at runtime.
/// Hit/miss/eviction counts are common/metrics counters ("info_cache/...",
/// visible in `mesa_cli --metrics`); GetStats() reads the same counts.
///
/// Thread-safety: everything here is safe to call concurrently; values
/// are pure functions of their keys, so cache effects can change timing
/// but never results, at any thread count.

#include <cstdint>
#include <memory>
#include <vector>

#include "info/contingency.h"

namespace mesa {
namespace info_cache {

/// One nonzero cell of a joint count cube: packed (x, y, z) key in the
/// builder's layout, and the total weight that landed in the cell.
struct CubeEntry {
  uint64_t key;
  double count;
};

/// Sparse sufficient statistics of one (x, y, z) triple: every observed
/// cell of the joint distribution over rows where all three variables are
/// present (and, when weighted, carry positive weight). Entries are
/// sorted by key ascending — the order a dense scan emits them — which
/// is what makes projections deterministic.
struct JointCube {
  /// Per-axis identity in the builder's layout order: content
  /// fingerprint and packed bit width.
  struct Axis {
    uint64_t fingerprint = 0;
    int bits = 0;
  };
  Axis axes[3];
  std::vector<CubeEntry> entries;
  double total = 0.0;  ///< total weight over the common support
};

/// Whether the cache is active (env gate + runtime override + no
/// EphemeralScope on this thread).
bool Enabled();
void SetEnabled(bool enabled);

/// RAII bypass for estimator calls over throwaway data. While alive on
/// the current thread, Enabled() is false: no fingerprinting, no
/// lookups, no inserts — the exact cache-off code path. The permutation
/// CI test holds one around its shuffled evaluations: every permutation
/// is new content that can never be asked again, so caching it would
/// pay the fingerprint hash and pollute the LRU for zero future hits.
class EphemeralScope {
 public:
  EphemeralScope();
  ~EphemeralScope();
  EphemeralScope(const EphemeralScope&) = delete;
  EphemeralScope& operator=(const EphemeralScope&) = delete;
};

/// Drops every cached entry (both layers, plus every memo registered
/// through OnClear). Benchmarks call this between timed arms so one arm
/// cannot warm the next.
void Clear();

/// Registers `clear` to run on every Clear(). Memos elsewhere that share
/// this cache's gate (the selection-bias / IPW memo, missing/bias_memo.h)
/// register themselves on first use, so one Clear() drops them all.
void OnClear(void (*clear)());

/// Cumulative counts. Hits and misses are read from the registry counters
/// info_cache/{scalar,cube}_{hit,miss}, so they pause while
/// metrics::SetEnabled(false) and restart from zero on metrics::ResetAll();
/// evictions come from the LRU tables themselves.
struct Stats {
  uint64_t scalar_hits = 0;
  uint64_t scalar_misses = 0;
  uint64_t cube_hits = 0;
  uint64_t cube_misses = 0;
  uint64_t scalar_evictions = 0;
  uint64_t cube_evictions = 0;
};
Stats GetStats();

/// Current entry counts (for capacity tests).
size_t ScalarEntries();
size_t CubeEntries();

/// Replaces both LRU tables with fresh ones of the given budgets
/// (scalar: max finished results; cube: max total stored cells). Exposed
/// for the eviction/capacity unit tests; production sizing comes from
/// defaults / MESA_INFO_CACHE.
void SetCapacityForTest(uint64_t scalar_entries, uint64_t cube_cells);

/// Scalar memo keys. `tag` distinguishes the estimator family; operand
/// fingerprints, the weights fingerprint and the options bits are mixed
/// in by the helpers in info_cache.cc.
uint64_t ScalarKey(uint64_t tag, const uint64_t* fps, size_t num_fps,
                   uint64_t weights_fp, bool miller_madow);
bool LookupScalar(uint64_t key, double* value);
void InsertScalar(uint64_t key, double value);

/// Fingerprint of an optional per-row weight vector (0 for unweighted).
uint64_t WeightsFingerprint(const std::vector<double>* weights);

/// The one scalar-memo path of the estimators: returns the memoized
/// value of the expression (tag, operand fingerprints in order, weights,
/// miller_madow), else `compute(fps, weights_fp)`, memoized. `compute`
/// gets the fingerprints it was keyed on so it can key further cache
/// layers without rehashing. With the cache disabled this is exactly
/// `compute(nullptr, 0)`: no fingerprinting, no lookups, no inserts.
template <size_t N, typename Compute>
double Memoized(uint64_t tag, const CodedVariable* const (&operands)[N],
                const std::vector<double>* weights, bool miller_madow,
                const Compute& compute) {
  if (!Enabled()) return compute(nullptr, uint64_t{0});
  uint64_t fps[N];
  for (size_t i = 0; i < N; ++i) fps[i] = operands[i]->fingerprint();
  const uint64_t weights_fp = WeightsFingerprint(weights);
  const uint64_t key = ScalarKey(tag, fps, N, weights_fp, miller_madow);
  double value = 0.0;
  if (LookupScalar(key, &value)) return value;
  value = compute(fps, weights_fp);
  InsertScalar(key, value);
  return value;
}

/// Memo key for a permutation CI test's p-value. The p-value is a pure
/// function of the three operand contents, the base seed, and the
/// permutation count (every permutation derives its Rng from
/// MixSeed(seed, i)); alpha and the epsilon short-circuit are applied
/// by the caller on top. Stored through the scalar memo.
uint64_t CiPValueKey(const uint64_t fps[3], uint64_t seed,
                     uint64_t num_permutations);

/// Unordered-axis cube key (commutative over the three fingerprints, so
/// any partition of the same triple finds the same cube).
uint64_t CubeKey(uint64_t fp_x, uint64_t fp_y, uint64_t fp_z,
                 uint64_t weights_fp);
std::shared_ptr<const JointCube> LookupCube(uint64_t key);
void InsertCube(uint64_t key, std::shared_ptr<const JointCube> cube);

}  // namespace info_cache
}  // namespace mesa

#endif  // MESA_INFO_INFO_CACHE_H_
