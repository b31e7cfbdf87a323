#include "info/info_cache.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/rng.h"

namespace mesa {
namespace info_cache {
namespace {

// Default budgets. Scalar entries are ~100 bytes each with LRU/index
// overhead; cube cost is counted in cells (16 bytes each), so the cube
// default of 4M cells per shard * 16 shards ~= 1 GiB worst case but in
// practice a query's working set is a few thousand cubes of a few
// hundred cells. MESA_INFO_CACHE=<MB> scales the cube budget.
constexpr uint64_t kDefaultScalarBudgetPerShard = 1 << 16;
constexpr uint64_t kDefaultCubeCellsPerShard = uint64_t{4} << 20;

struct Caches {
  ShardedLruCache<double> scalar;
  ShardedLruCache<std::shared_ptr<const JointCube>> cube;
  Caches(uint64_t scalar_budget, uint64_t cube_budget)
      : scalar(scalar_budget), cube(cube_budget) {}
};

std::mutex g_caches_mu;
std::shared_ptr<Caches> g_caches;  // created lazily under g_caches_mu
std::vector<void (*)()> g_on_clear;  // guarded by g_caches_mu

// -1 = follow the MESA_INFO_CACHE environment variable, 0/1 = forced.
std::atomic<int> g_enabled_override{-1};

bool EnvDisabled(uint64_t* cube_budget_cells) {
  const char* env = std::getenv("MESA_INFO_CACHE");
  if (env == nullptr || env[0] == '\0') return false;
  std::string v(env);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "off" || v == "0" || v == "false") return true;
  if (v == "on" || v == "true") return false;
  char* end = nullptr;
  unsigned long long mb = std::strtoull(v.c_str(), &end, 10);
  if (end != v.c_str() && *end == '\0' && mb > 0) {
    // Interpret a number as the total cube budget in MB; a cube cell
    // costs 16 bytes and the cache has 16 shards, so MB -> per-shard
    // cells is mb * 2^20 / 16 / 16.
    *cube_budget_cells = static_cast<uint64_t>(mb) * (1 << 12);
  }
  return false;
}

std::shared_ptr<Caches> GetCaches() {
  std::lock_guard<std::mutex> lock(g_caches_mu);
  if (g_caches == nullptr) {
    uint64_t cube_cells = kDefaultCubeCellsPerShard;
    EnvDisabled(&cube_cells);  // may scale the budget
    g_caches = std::make_shared<Caches>(kDefaultScalarBudgetPerShard,
                                        cube_cells);
  }
  return g_caches;
}

}  // namespace

// Depth, not flag: EphemeralScopes may nest (a CI test inside another
// estimator's scope).
thread_local int g_ephemeral_depth = 0;

EphemeralScope::EphemeralScope() { ++g_ephemeral_depth; }
EphemeralScope::~EphemeralScope() { --g_ephemeral_depth; }

bool Enabled() {
  if (g_ephemeral_depth > 0) return false;
  int forced = g_enabled_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool env_disabled = [] {
    uint64_t unused = 0;
    return EnvDisabled(&unused);
  }();
  return !env_disabled;
}

void SetEnabled(bool enabled) {
  g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void Clear() {
  auto caches = GetCaches();
  caches->scalar.Clear();
  caches->cube.Clear();
  std::vector<void (*)()> hooks;
  {
    std::lock_guard<std::mutex> lock(g_caches_mu);
    hooks = g_on_clear;
  }
  for (void (*clear)() : hooks) clear();
}

void OnClear(void (*clear)()) {
  std::lock_guard<std::mutex> lock(g_caches_mu);
  g_on_clear.push_back(clear);
}

Stats GetStats() {
  Stats s;
  s.scalar_hits = metrics::CounterValue("info_cache/scalar_hit");
  s.scalar_misses = metrics::CounterValue("info_cache/scalar_miss");
  s.cube_hits = metrics::CounterValue("info_cache/cube_hit");
  s.cube_misses = metrics::CounterValue("info_cache/cube_miss");
  auto caches = GetCaches();
  s.scalar_evictions = caches->scalar.evictions();
  s.cube_evictions = caches->cube.evictions();
  return s;
}

size_t ScalarEntries() { return GetCaches()->scalar.size(); }
size_t CubeEntries() { return GetCaches()->cube.size(); }

void SetCapacityForTest(uint64_t scalar_entries, uint64_t cube_cells) {
  std::lock_guard<std::mutex> lock(g_caches_mu);
  g_caches = std::make_shared<Caches>(scalar_entries, cube_cells);
}

uint64_t ScalarKey(uint64_t tag, const uint64_t* fps, size_t num_fps,
                   uint64_t weights_fp, bool miller_madow) {
  // Ordered mix: H(o1; c) != H(c; o1), which matters because the scalar
  // memo distinguishes e.g. H(X,Z) from H(Y,Z) by operand order.
  uint64_t h = MixSeed(tag, num_fps);
  for (size_t i = 0; i < num_fps; ++i) h = MixSeed(h, fps[i]);
  h = MixSeed(h, weights_fp);
  h = MixSeed(h, miller_madow ? 1 : 0);
  return h;
}

bool LookupScalar(uint64_t key, double* value) {
  if (GetCaches()->scalar.Lookup(key, value)) {
    MESA_COUNT("info_cache/scalar_hit");
    return true;
  }
  MESA_COUNT("info_cache/scalar_miss");
  return false;
}

void InsertScalar(uint64_t key, double value) {
  GetCaches()->scalar.Insert(key, value, 1);
}

uint64_t CiPValueKey(const uint64_t fps[3], uint64_t seed,
                     uint64_t num_permutations) {
  uint64_t h = MixSeed(0x4349u, 3);  // "CI"
  for (int i = 0; i < 3; ++i) h = MixSeed(h, fps[i]);
  h = MixSeed(h, seed);
  return MixSeed(h, num_permutations);
}

uint64_t CubeKey(uint64_t fp_x, uint64_t fp_y, uint64_t fp_z,
                 uint64_t weights_fp) {
  // Commutative over the axis fingerprints: any ordering of the same
  // three variables maps to the same cube. Each fingerprint is first
  // avalanched independently so the sum doesn't collapse related keys.
  uint64_t h = MixSeed(0x9A75u, fp_x) + MixSeed(0x9A75u, fp_y) +
               MixSeed(0x9A75u, fp_z);
  return MixSeed(h, weights_fp);
}

std::shared_ptr<const JointCube> LookupCube(uint64_t key) {
  std::shared_ptr<const JointCube> cube;
  if (GetCaches()->cube.Lookup(key, &cube)) {
    MESA_COUNT("info_cache/cube_hit");
    return cube;
  }
  MESA_COUNT("info_cache/cube_miss");
  return nullptr;
}

void InsertCube(uint64_t key, std::shared_ptr<const JointCube> cube) {
  uint64_t cost = cube->entries.size();
  if (cost == 0) cost = 1;
  GetCaches()->cube.Insert(key, std::move(cube), cost);
}

uint64_t WeightsFingerprint(const std::vector<double>* weights) {
  if (weights == nullptr || weights->empty()) return 0;
  return StableHash64Bytes(weights->data(), weights->size() * sizeof(double));
}

}  // namespace info_cache
}  // namespace mesa
