// Tests for the sufficient-statistics cache (src/info/info_cache.h) and
// its building blocks: the sharded LRU map, content fingerprints, and —
// the load-bearing property — that every estimator returns *bit-identical*
// results with the cache on and off, across seeded datasets and at 1, 2,
// and 8 threads. Own binary: these tests resize both the global thread
// pool and the process-wide cache, which is cleanest in isolation.

#include "info/info_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/mesa.h"
#include "datagen/registry.h"
#include "info/entropy.h"
#include "info/independence.h"
#include "info/mutual_information.h"
#include "stats/discretizer.h"

namespace mesa {
namespace {

// Production-default budgets (mirrors info_cache.cc): used to restore the
// global cache after capacity tests.
constexpr uint64_t kScalarBudget = 1 << 16;
constexpr uint64_t kCubeBudget = uint64_t{4} << 20;

void ResetCache() {
  info_cache::SetEnabled(true);
  info_cache::SetCapacityForTest(kScalarBudget, kCubeBudget);
}

// ------------------------------------------------------ ShardedLruCache

// All keys multiples of 16 land in one shard, making eviction order
// observable.
constexpr uint64_t K(uint64_t i) { return i * 16; }

TEST(ShardedLruCache, InsertAndLookup) {
  ShardedLruCache<int> cache(8);
  int v = 0;
  EXPECT_FALSE(cache.Lookup(K(1), &v));
  cache.Insert(K(1), 42, 1);
  ASSERT_TRUE(cache.Lookup(K(1), &v));
  EXPECT_EQ(v, 42);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.cost(), 1u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsed) {
  ShardedLruCache<int> cache(3);
  cache.Insert(K(1), 1, 1);
  cache.Insert(K(2), 2, 1);
  cache.Insert(K(3), 3, 1);
  int v = 0;
  // Touch K(1) so K(2) is now the least recently used.
  ASSERT_TRUE(cache.Lookup(K(1), &v));
  cache.Insert(K(4), 4, 1);
  EXPECT_FALSE(cache.Lookup(K(2), &v));
  EXPECT_TRUE(cache.Lookup(K(1), &v));
  EXPECT_TRUE(cache.Lookup(K(3), &v));
  EXPECT_TRUE(cache.Lookup(K(4), &v));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ShardedLruCache, EvictsByCostNotCount) {
  ShardedLruCache<int> cache(10);
  cache.Insert(K(1), 1, 4);
  cache.Insert(K(2), 2, 4);
  // Cost 8 held; a cost-7 entry must evict both to fit (4 + 7 > 10).
  cache.Insert(K(3), 3, 7);
  int v = 0;
  EXPECT_FALSE(cache.Lookup(K(1), &v));
  EXPECT_FALSE(cache.Lookup(K(2), &v));
  EXPECT_TRUE(cache.Lookup(K(3), &v));
  EXPECT_EQ(cache.cost(), 7u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(ShardedLruCache, FillsToExactBudgetWithOneEviction) {
  ShardedLruCache<int> cache(10);
  cache.Insert(K(1), 1, 4);
  cache.Insert(K(2), 2, 4);
  // 4 + 6 lands exactly on the budget: only the LRU entry goes.
  cache.Insert(K(3), 3, 6);
  int v = 0;
  EXPECT_FALSE(cache.Lookup(K(1), &v));
  EXPECT_TRUE(cache.Lookup(K(2), &v));
  EXPECT_TRUE(cache.Lookup(K(3), &v));
  EXPECT_EQ(cache.cost(), 10u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ShardedLruCache, DeclinesEntryLargerThanBudget) {
  ShardedLruCache<int> cache(4);
  cache.Insert(K(1), 1, 1);
  cache.Insert(K(2), 2, 100);  // would never fit: not admitted
  int v = 0;
  EXPECT_FALSE(cache.Lookup(K(2), &v));
  EXPECT_TRUE(cache.Lookup(K(1), &v));  // and nothing was evicted for it
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ShardedLruCache, ReinsertRefreshesRecencyKeepsFirstValue) {
  ShardedLruCache<int> cache(2);
  cache.Insert(K(1), 1, 1);
  cache.Insert(K(2), 2, 1);
  cache.Insert(K(1), 99, 1);  // refresh, not replace
  cache.Insert(K(3), 3, 1);   // evicts K(2), the LRU
  int v = 0;
  ASSERT_TRUE(cache.Lookup(K(1), &v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(cache.Lookup(K(2), &v));
}

TEST(ShardedLruCache, ClearDropsEntriesKeepsStats) {
  ShardedLruCache<int> cache(1);
  cache.Insert(K(1), 1, 1);
  cache.Insert(K(2), 2, 1);  // evicts K(1)
  EXPECT_EQ(cache.evictions(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.cost(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
  int v = 0;
  EXPECT_FALSE(cache.Lookup(K(2), &v));
}

// ------------------------------------------------------- fingerprints

TEST(CodedFingerprint, ContentAddressedAndInvalidatable) {
  Rng rng(7);
  CodedVariable a;
  a.codes.resize(1000);
  for (auto& c : a.codes) c = static_cast<int32_t>(rng.NextBelow(5));
  a.cardinality = 5;
  CodedVariable b = a;  // copy resets the memo; content is equal
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  uint64_t before = a.fingerprint();
  a.codes[0] = (a.codes[0] + 1) % 5;
  a.InvalidateFingerprint();
  EXPECT_NE(a.fingerprint(), before);

  // Same content again hashes back to the original value.
  a.codes[0] = b.codes[0];
  a.InvalidateFingerprint();
  EXPECT_EQ(a.fingerprint(), before);

  // Cardinality is part of the identity (it changes the key layout).
  CodedVariable c = b;
  c.cardinality = 6;
  EXPECT_NE(c.fingerprint(), b.fingerprint());
}

// ------------------------------------------- cached == uncached property

CodedVariable RandomCoded(Rng& rng, size_t n, int32_t card,
                          double missing_p) {
  CodedVariable v;
  v.codes.resize(n);
  for (auto& c : v.codes) {
    c = rng.NextBernoulli(missing_p)
            ? -1
            : static_cast<int32_t>(rng.NextBelow(card));
  }
  v.cardinality = card;
  return v;
}

// Every estimator the system uses, over one seeded dataset, including
// the cross-partition CMI calls that exercise cube repacking and the
// permutation CI test that exercises the thread pool + fingerprint
// invalidation of its scratch variable.
std::vector<double> EstimatorBattery(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 400 + 37 * (seed % 7);
  CodedVariable x = RandomCoded(rng, n, 2 + seed % 5, 0.1);
  CodedVariable y = RandomCoded(rng, n, 3 + seed % 4, 0.0);
  CodedVariable z = RandomCoded(rng, n, 2 + seed % 3, 0.05);
  std::vector<double> weights;
  const std::vector<double>* w = nullptr;
  if (seed % 2 == 1) {
    weights.resize(n);
    for (auto& wi : weights) wi = rng.NextUniform(0.5, 2.0);
    w = &weights;
  }
  EntropyOptions mm;
  mm.miller_madow = true;
  IndependenceOptions ind;
  ind.num_permutations = 30;

  std::vector<double> out;
  out.push_back(Entropy(x, w));
  out.push_back(Entropy(x, w, mm));
  out.push_back(ConditionalEntropy(x, y, w));
  out.push_back(MutualInformation(x, y, w));
  out.push_back(ConditionalMutualInformation(x, y, z, w));
  // Cross-partition calls over the same triple: cube reuse by repacking.
  out.push_back(ConditionalMutualInformation(x, z, y, w));
  out.push_back(ConditionalMutualInformation(y, z, x, w));
  // Exact repeats: scalar memo hits.
  out.push_back(ConditionalMutualInformation(x, y, z, w));
  out.push_back(MutualInformation(x, y, w));
  out.push_back(InteractionInformation(x, y, z, w));
  IndependenceResult ci = ConditionalIndependenceTest(x, y, z, ind);
  out.push_back(ci.cmi);
  out.push_back(ci.p_value);
  return out;
}

TEST(InfoCacheProperty, CachedBitIdenticalToUncachedAcrossSeedsAndThreads) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    info_cache::SetEnabled(false);
    SetNumThreads(1);
    const std::vector<double> reference = EstimatorBattery(seed);
    for (size_t threads : {1, 2, 8}) {
      SetNumThreads(threads);
      // Cold cache and warm cache must both match the uncached result.
      ResetCache();
      std::vector<double> cold = EstimatorBattery(seed);
      std::vector<double> warm = EstimatorBattery(seed);
      info_cache::SetEnabled(false);
      std::vector<double> off = EstimatorBattery(seed);
      ASSERT_EQ(reference.size(), cold.size());
      for (size_t q = 0; q < reference.size(); ++q) {
        const std::string label = "seed=" + std::to_string(seed) +
                                  " threads=" + std::to_string(threads) +
                                  " quantity=" + std::to_string(q);
        EXPECT_EQ(reference[q], cold[q]) << label << " (cold cache)";
        EXPECT_EQ(reference[q], warm[q]) << label << " (warm cache)";
        EXPECT_EQ(reference[q], off[q]) << label << " (cache off)";
      }
    }
  }
  SetNumThreads(1);
  ResetCache();
}

// Under a tiny capacity the cache thrashes — constant evictions — and
// results must still be exactly the uncached values (eviction affects hit
// rates, never correctness).
TEST(InfoCacheProperty, EvictionPressureNeverChangesResults) {
  info_cache::SetEnabled(false);
  SetNumThreads(1);
  std::vector<std::vector<double>> reference;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    reference.push_back(EstimatorBattery(seed));
  }
  info_cache::SetEnabled(true);
  info_cache::SetCapacityForTest(/*scalar_entries=*/2, /*cube_cells=*/64);
  for (int round = 0; round < 2; ++round) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      std::vector<double> got = EstimatorBattery(seed);
      ASSERT_EQ(reference[seed].size(), got.size());
      for (size_t q = 0; q < got.size(); ++q) {
        EXPECT_EQ(reference[seed][q], got[q])
            << "seed=" << seed << " round=" << round << " q=" << q;
      }
    }
  }
  info_cache::Stats stats = info_cache::GetStats();
  EXPECT_GT(stats.scalar_evictions + stats.cube_evictions, 0u)
      << "capacity was meant to force eviction";
  ResetCache();
}

// ------------------------------------------------------------ statistics

// Stats read the registry counters info_cache/{scalar,cube}_{hit,miss}.
TEST(InfoCacheStats, HitsAndMissesAreCounted) {
  ResetCache();
  Rng rng(99);
  CodedVariable x = RandomCoded(rng, 500, 4, 0.0);
  CodedVariable y = RandomCoded(rng, 500, 3, 0.0);
  CodedVariable z = RandomCoded(rng, 500, 3, 0.0);

  info_cache::Stats before = info_cache::GetStats();
  double first = ConditionalMutualInformation(x, y, z);
  info_cache::Stats mid = info_cache::GetStats();
  EXPECT_GT(mid.scalar_misses, before.scalar_misses);
  EXPECT_GT(mid.cube_misses, before.cube_misses);

  double second = ConditionalMutualInformation(x, y, z);
  info_cache::Stats after = info_cache::GetStats();
  EXPECT_EQ(first, second);
  EXPECT_GT(after.scalar_hits, mid.scalar_hits);

  // A different partition of the same triple reuses the counted cube.
  ConditionalMutualInformation(x, z, y);
  info_cache::Stats repack = info_cache::GetStats();
  EXPECT_GT(repack.cube_hits, after.cube_hits);
  ResetCache();
}

TEST(InfoCacheStats, DisabledCacheTouchesNothing) {
  ResetCache();
  info_cache::Clear();
  info_cache::SetEnabled(false);
  Rng rng(123);
  CodedVariable x = RandomCoded(rng, 300, 4, 0.0);
  CodedVariable y = RandomCoded(rng, 300, 3, 0.0);
  CodedVariable z = RandomCoded(rng, 300, 3, 0.0);
  info_cache::Stats before = info_cache::GetStats();
  ConditionalMutualInformation(x, y, z);
  Entropy(x);
  info_cache::Stats after = info_cache::GetStats();
  EXPECT_EQ(before.scalar_hits + before.scalar_misses,
            after.scalar_hits + after.scalar_misses);
  EXPECT_EQ(before.cube_hits + before.cube_misses,
            after.cube_hits + after.cube_misses);
  EXPECT_EQ(info_cache::ScalarEntries(), 0u);
  EXPECT_EQ(info_cache::CubeEntries(), 0u);
  ResetCache();
}

TEST(InfoCacheStats, EphemeralScopeBypassesEveryLayer) {
  ResetCache();
  info_cache::Clear();
  info_cache::SetEnabled(true);
  Rng rng(321);
  CodedVariable x = RandomCoded(rng, 300, 4, 0.0);
  CodedVariable y = RandomCoded(rng, 300, 3, 0.0);
  CodedVariable z = RandomCoded(rng, 300, 3, 0.0);
  double expected = ConditionalMutualInformation(x, y, z);
  info_cache::Stats before = info_cache::GetStats();
  size_t scalars = info_cache::ScalarEntries();
  size_t cubes = info_cache::CubeEntries();
  {
    info_cache::EphemeralScope ephemeral;
    EXPECT_FALSE(info_cache::Enabled());
    {
      info_cache::EphemeralScope nested;  // scopes nest
      EXPECT_FALSE(info_cache::Enabled());
    }
    EXPECT_FALSE(info_cache::Enabled());
    // Same result, but no lookups, no inserts, no counter movement.
    EXPECT_EQ(ConditionalMutualInformation(x, y, z), expected);
  }
  EXPECT_TRUE(info_cache::Enabled());
  info_cache::Stats after = info_cache::GetStats();
  EXPECT_EQ(before.scalar_hits + before.scalar_misses,
            after.scalar_hits + after.scalar_misses);
  EXPECT_EQ(before.cube_hits + before.cube_misses,
            after.cube_hits + after.cube_misses);
  EXPECT_EQ(info_cache::ScalarEntries(), scalars);
  EXPECT_EQ(info_cache::CubeEntries(), cubes);
  ResetCache();
}

// ----------------------------------------------------------- end-to-end

// A full MESA explanation — pruning, MCIMR, responsibility, subgroups —
// must be identical with the cache on and off, at several thread counts.
TEST(InfoCacheEndToEnd, ExplanationIdenticalWithCacheOnAndOff) {
  GenOptions gen;
  gen.seed = 2001;
  auto ds = MakeDataset(DatasetKind::kCovid, gen);
  ASSERT_TRUE(ds.ok());
  const QuerySpec query = CanonicalQueries(DatasetKind::kCovid).front().query;

  auto explain = [&]() -> MesaReport {
    Mesa mesa(ds->table, ds->kg.get(), ds->extraction_columns);
    auto report = mesa.Explain(query);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  };

  info_cache::SetEnabled(false);
  SetNumThreads(1);
  MesaReport ref = explain();

  for (size_t threads : {1, 2, 8}) {
    SetNumThreads(threads);
    ResetCache();
    MesaReport got = explain();
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(ref.base_cmi, got.base_cmi) << label;
    EXPECT_EQ(ref.final_cmi, got.final_cmi) << label;
    EXPECT_EQ(ref.explanation.attribute_names, got.explanation.attribute_names)
        << label;
    EXPECT_EQ(ref.explanation.base_cmi, got.explanation.base_cmi) << label;
    EXPECT_EQ(ref.explanation.final_cmi, got.explanation.final_cmi) << label;
    ASSERT_EQ(ref.responsibilities.size(), got.responsibilities.size())
        << label;
    for (size_t r = 0; r < ref.responsibilities.size(); ++r) {
      EXPECT_EQ(ref.responsibilities[r].attribute_index,
                got.responsibilities[r].attribute_index)
          << label;
      EXPECT_EQ(ref.responsibilities[r].responsibility,
                got.responsibilities[r].responsibility)
          << label;
    }
  }
  SetNumThreads(1);
  ResetCache();
}

// ---------------------------------------------------- cross-query reuse

// Two queries over the same content must share cache entries, even when
// they run through *different* Mesa/Table objects: the discretizer memo
// keys on Column::ContentFingerprint + binning spec, so identical bytes
// yield identical codes, identical CodedVariable fingerprints, and so
// info-cache hits instead of recomputation.
TEST(InfoCacheCrossQuery, SecondQueryReusesDiscretizerAndInfoEntries) {
  ResetCache();
  ClearDiscretizerCache();
  SetNumThreads(1);
  GenOptions gen;
  gen.seed = 2002;
  auto ds = MakeDataset(DatasetKind::kCovid, gen);
  ASSERT_TRUE(ds.ok());
  const QuerySpec query = CanonicalQueries(DatasetKind::kCovid).front().query;

  Mesa mesa1(ds->table, ds->kg.get(), ds->extraction_columns);
  ASSERT_TRUE(mesa1.Preprocess().ok());
  auto report1 = mesa1.Explain(query);
  ASSERT_TRUE(report1.ok()) << report1.status().ToString();
  const DiscretizerCacheStats disc1 = GetDiscretizerCacheStats();
  const info_cache::Stats info1 = info_cache::GetStats();
  EXPECT_GT(disc1.misses, 0u);  // the first query had to discretise

  // Fresh Mesa over the same dataset: new Table/Column objects with the
  // same bytes. Content addressing must carry every cache entry over.
  Mesa mesa2(ds->table, ds->kg.get(), ds->extraction_columns);
  ASSERT_TRUE(mesa2.Preprocess().ok());
  auto report2 = mesa2.Explain(query);
  ASSERT_TRUE(report2.ok());
  const DiscretizerCacheStats disc2 = GetDiscretizerCacheStats();
  const info_cache::Stats info2 = info_cache::GetStats();

  EXPECT_GT(disc2.hits, disc1.hits);
  // Nothing new to discretise: every (column content, spec) pair of the
  // second run was already memoized by the first.
  EXPECT_EQ(disc2.misses, disc1.misses);
  EXPECT_GT(info2.scalar_hits + info2.cube_hits,
            info1.scalar_hits + info1.cube_hits);
  // And the reused entries produce the same explanation.
  EXPECT_EQ(report1->base_cmi, report2->base_cmi);
  EXPECT_EQ(report1->final_cmi, report2->final_cmi);
  EXPECT_EQ(report1->explanation.attribute_names,
            report2->explanation.attribute_names);

  ResetCache();
  ClearDiscretizerCache();
}

}  // namespace
}  // namespace mesa
