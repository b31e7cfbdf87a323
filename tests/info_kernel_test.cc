// Tests for the MI/CMI kernel family (src/info/cmi_kernel.h): the dense
// arena and the sort-packed sparse kernel must build *bit-for-bit* the
// same cube on every input (the canonical-cube contract), selection must
// follow the key width, and the packed path must unlock joint-cube
// sharing above the 20-bit dense limit where the old code recorded zero
// cube hits. Own binary: it resizes the global pool and clears the
// process-wide cache.

#include "info/cmi_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "info/info_cache.h"
#include "info/key_packing.h"
#include "info/mutual_information.h"

namespace mesa {
namespace {

// Restores the pool and the cache when a test exits.
struct KernelGuard {
  ~KernelGuard() {
    SetNumThreads(1);
    info_cache::SetEnabled(true);
    info_cache::Clear();
  }
};

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

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// The canonical-cube contract: the dense arena and the sort-packed
// builder emit the *same* sparse cube — same keys, bitwise-equal cell
// counts (each summed in input-row order) — and therefore bitwise-equal
// CMI, across 20 seeded datasets (odd seeds IPW-weighted), every
// partition of the triple, with and without Miller-Madow, at 1, 2, and 8
// threads. Widths stay within the dense arena, where both builders run.
TEST(CmiKernelProperty, DensePackedBitIdenticalAcrossSeedsAndThreads) {
  KernelGuard guard;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const size_t n = 500 + 41 * (seed % 5);
    const bool wide = seed % 3 == 0;  // 9 + 8 + 3 = 20 key bits
    CodedVariable x = RandomCoded(rng, n, wide ? 300 : 2 + seed % 5, 0.1);
    CodedVariable y = RandomCoded(rng, n, wide ? 200 : 3 + seed % 4, 0.0);
    CodedVariable z = RandomCoded(rng, n, wide ? 8 : 2 + seed % 3, 0.05);
    std::vector<double> weights;
    if (seed % 2 == 1) {
      weights.resize(n);
      for (auto& wi : weights) wi = rng.NextUniform(0.5, 2.0);
    }
    const std::vector<double>* w = weights.empty() ? nullptr : &weights;
    const CodedVariable* partitions[3][3] = {
        {&x, &y, &z}, {&x, &z, &y}, {&y, &z, &x}};
    for (size_t threads : {1, 2, 8}) {
      SetNumThreads(threads);
      for (const auto& p : partitions) {
        const int bx = info_internal::BitsFor(p[0]->cardinality);
        const int by = info_internal::BitsFor(p[1]->cardinality);
        const int bz = info_internal::BitsFor(p[2]->cardinality);
        std::vector<info_cache::CubeEntry> dense, packed;
        info_internal::BuildDenseEntries(*p[0], *p[1], *p[2], w, bx, by, bz,
                                         &dense);
        info_internal::BuildPackedEntries(*p[0], *p[1], *p[2], w, bx, by, bz,
                                          &packed);
        const std::string label = "seed=" + std::to_string(seed) +
                                  " threads=" + std::to_string(threads) +
                                  " bits=" + std::to_string(bx + by + bz);
        ASSERT_EQ(dense.size(), packed.size()) << label;
        for (size_t i = 0; i < dense.size(); ++i) {
          ASSERT_EQ(dense[i].key, packed[i].key) << label << " cell=" << i;
          ASSERT_EQ(Bits(dense[i].count), Bits(packed[i].count))
              << label << " cell=" << i;
        }
        const double total = info_internal::SumEntriesAscending(dense);
        for (bool mm : {false, true}) {
          EntropyOptions options;
          options.miller_madow = mm;
          EXPECT_EQ(Bits(info_internal::CmiFromEntries(dense, total, options,
                                                       bx, by, bz)),
                    Bits(info_internal::CmiFromEntries(packed, total, options,
                                                       bx, by, bz)))
              << label << " mm=" << mm;
        }
      }
    }
  }
}

// Permuting the input rows permutes only the order in which each cell's
// count accumulates. Unweighted counts are small integers, so the cube —
// and with it every estimate — must be *bitwise* invariant under row
// permutation, on both kernels: even seeds use 16 key bits (dense), odd
// seeds 28 (packed).
TEST(CmiKernelProperty, UnweightedEstimatesInvariantUnderRowPermutation) {
  KernelGuard guard;
  SetNumThreads(8);
  info_cache::SetEnabled(false);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed * 77 + 1);
    const size_t n = 3000;
    const bool wide = seed % 2 == 1;
    CodedVariable x = RandomCoded(rng, n, wide ? 1500 : 40, 0.1);
    CodedVariable y = RandomCoded(rng, n, wide ? 1200 : 30, 0.0);
    CodedVariable z = RandomCoded(rng, n, wide ? 40 : 20, 0.05);

    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    for (size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
    }
    auto permuted = [&](const CodedVariable& v) {
      CodedVariable p = v;
      for (size_t i = 0; i < n; ++i) p.codes[i] = v.codes[perm[i]];
      p.InvalidateFingerprint();
      return p;
    };
    CodedVariable px = permuted(x), py = permuted(y), pz = permuted(z);

    EXPECT_EQ(ConditionalMutualInformation(x, y, z),
              ConditionalMutualInformation(px, py, pz))
        << "seed=" << seed;
    EXPECT_EQ(MutualInformation(x, y), MutualInformation(px, py))
        << "seed=" << seed;
  }
}

// --------------------------------------- cube sharing above 20 bits

// Before the packed kernel, any triple wider than the 20-bit dense arena
// fell back to the chain-rule identity and recorded *zero* cube traffic.
// Now the packed kernel materializes a canonical cube, so a cross-
// partition call over the same wide triple must land a cube hit.
TEST(CmiKernelCache, JointCubeSharedAboveDenseBitLimit) {
  KernelGuard guard;
  SetNumThreads(1);
  info_cache::SetEnabled(true);
  info_cache::Clear();

  Rng rng(4242);
  const size_t n = 4000;
  // 11 + 11 + 6 = 28 key bits: comfortably past kDenseCmiBits = 20.
  CodedVariable x = RandomCoded(rng, n, 1500, 0.0);
  CodedVariable y = RandomCoded(rng, n, 1200, 0.0);
  CodedVariable z = RandomCoded(rng, n, 40, 0.0);
  ASSERT_GT(info_internal::BitsFor(x.cardinality) +
                info_internal::BitsFor(y.cardinality) +
                info_internal::BitsFor(z.cardinality),
            info_internal::kDenseCmiBits);

  info_cache::Stats before = info_cache::GetStats();
  double first = ConditionalMutualInformation(x, y, z);
  info_cache::Stats mid = info_cache::GetStats();
  EXPECT_GT(mid.cube_misses, before.cube_misses);

  // Different partition of the same triple: served by repacking the
  // cached cube, not by a rebuild.
  double repartitioned = ConditionalMutualInformation(x, z, y);
  info_cache::Stats after = info_cache::GetStats();
  EXPECT_GT(after.cube_hits, mid.cube_hits)
      << "wide triple did not share its joint cube";
  EXPECT_GE(first, 0.0);
  EXPECT_GE(repartitioned, 0.0);

  // And the repacked answer is bitwise what a cold computation gives.
  info_cache::SetEnabled(false);
  EXPECT_EQ(repartitioned, ConditionalMutualInformation(x, z, y));

  // Wide MI shares cubes now too (it is CMI with a trivial z axis).
  info_cache::SetEnabled(true);
  info_cache::Clear();
  info_cache::Stats m0 = info_cache::GetStats();
  MutualInformation(x, y);
  MutualInformation(y, x);  // commutes onto the same cube
  info_cache::Stats m1 = info_cache::GetStats();
  EXPECT_GT(m1.cube_hits, m0.cube_hits);
}

// Selection routes by key width: narrow triples to the dense arena, wide
// ones to the packed kernel — observable in the selection counters.
TEST(CmiKernelCounters, AutoSelectsByKeyWidth) {
  KernelGuard guard;
  SetNumThreads(1);
  info_cache::SetEnabled(false);

  Rng rng(31);
  CodedVariable nx = RandomCoded(rng, 1000, 4, 0.0);
  CodedVariable ny = RandomCoded(rng, 1000, 3, 0.0);
  CodedVariable nz = RandomCoded(rng, 1000, 3, 0.0);
  CodedVariable wx = RandomCoded(rng, 1000, 1500, 0.0);
  CodedVariable wy = RandomCoded(rng, 1000, 1200, 0.0);
  CodedVariable wz = RandomCoded(rng, 1000, 40, 0.0);

  uint64_t dense0 = metrics::CounterValue("info/kernel_dense");
  uint64_t packed0 = metrics::CounterValue("info/kernel_packed");
  ConditionalMutualInformation(nx, ny, nz);
  EXPECT_EQ(metrics::CounterValue("info/kernel_dense"), dense0 + 1);
  EXPECT_EQ(metrics::CounterValue("info/kernel_packed"), packed0);
  ConditionalMutualInformation(wx, wy, wz);
  EXPECT_EQ(metrics::CounterValue("info/kernel_packed"), packed0 + 1);
}

}  // namespace
}  // namespace mesa
