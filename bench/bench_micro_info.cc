// Micro-benchmarks (google-benchmark) for the information-theoretic
// estimator stack: entropy, MI, CMI (packed fast path vs generic fallback),
// code combination, weighted estimation, and the permutation independence
// test. These are the inner loops of MCIMR; Figure 4/5's scaling follows
// directly from their costs.

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "info/cmi_kernel.h"
#include "info/contingency.h"
#include "info/independence.h"
#include "info/info_cache.h"
#include "info/key_packing.h"
#include "info/mutual_information.h"

namespace mesa {
namespace {

CodedVariable RandomVar(size_t n, int32_t card, uint64_t seed,
                        double missing = 0.0) {
  Rng rng(seed);
  CodedVariable v;
  v.cardinality = card;
  v.codes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (missing > 0.0 && rng.NextBernoulli(missing)) {
      v.codes.push_back(-1);
    } else {
      v.codes.push_back(static_cast<int32_t>(rng.NextBelow(card)));
    }
  }
  return v;
}

void BM_Entropy(benchmark::State& state) {
  auto x = RandomVar(static_cast<size_t>(state.range(0)), 8, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Entropy(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Entropy)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_MutualInformation(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto x = RandomVar(n, 8, 1);
  auto y = RandomVar(n, 8, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutualInformation(x, y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MutualInformation)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_CmiPackedPath(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto x = RandomVar(n, 8, 1);
  auto y = RandomVar(n, 64, 2);
  auto z = RandomVar(n, 8, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConditionalMutualInformation(x, y, z));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CmiPackedPath)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_CmiGenericFallback(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto x = RandomVar(n, 8, 1);
  auto y = RandomVar(n, 64, 2);
  auto z = RandomVar(n, 8, 3);
  // Oversized declared cardinalities force the CombinePair fallback.
  x.cardinality = 1 << 30;
  z.cardinality = 1 << 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConditionalMutualInformation(x, y, z));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CmiGenericFallback)->Arg(10'000)->Arg(100'000);

void BM_CmiWeighted(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto x = RandomVar(n, 8, 1, 0.2);
  auto y = RandomVar(n, 64, 2);
  auto z = RandomVar(n, 8, 3);
  Rng rng(4);
  std::vector<double> w(n);
  for (auto& v : w) v = rng.NextUniform(0.5, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConditionalMutualInformation(x, y, z, &w));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CmiWeighted)->Arg(10'000)->Arg(100'000);

void BM_CombinePair(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomVar(n, 16, 1);
  auto b = RandomVar(n, 16, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CombinePair(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CombinePair)->Arg(10'000)->Arg(100'000);

void BM_IndependenceTest(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  CodedVariable x, y, z = RandomVar(n, 4, 3);
  x.cardinality = y.cardinality = 3;
  for (size_t i = 0; i < n; ++i) {
    int32_t v = static_cast<int32_t>(rng.NextBelow(3));
    x.codes.push_back(v);
    y.codes.push_back(rng.NextBernoulli(0.6)
                          ? v
                          : static_cast<int32_t>(rng.NextBelow(3)));
  }
  IndependenceOptions opts;
  opts.num_permutations = 49;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConditionalIndependenceTest(x, y, z, opts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndependenceTest)->Arg(10'000)->Arg(50'000);

void BM_IndependenceTestThreadSweep(benchmark::State& state) {
  // The permutation CI test at a fixed size across pool sizes: the
  // speedup trajectory (1 / 2 / 4 / 8 threads) lands in the benchmark
  // JSON. The p-value is bit-identical at every arg — only the wall time
  // moves (hence UseRealTime: the work runs on pool threads).
  const size_t n = 50'000;
  Rng rng(7);
  CodedVariable x, y, z = RandomVar(n, 4, 3);
  x.cardinality = y.cardinality = 3;
  for (size_t i = 0; i < n; ++i) {
    int32_t v = static_cast<int32_t>(rng.NextBelow(3));
    x.codes.push_back(v);
    y.codes.push_back(rng.NextBernoulli(0.6)
                          ? v
                          : static_cast<int32_t>(rng.NextBelow(3)));
  }
  IndependenceOptions opts;
  opts.num_permutations = 49;
  const size_t prev_threads = NumThreads();
  SetNumThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConditionalIndependenceTest(x, y, z, opts));
  }
  SetNumThreads(prev_threads);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IndependenceTestThreadSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// CMI kernel A/B: dense arena vs sort-packed over the same triple, each
// cube builder called directly (no selection, no caches) so every
// iteration measures the kernel itself. |X| = |Z| = 8, so |Y| sweeps the
// joint-key width: 64 → 12 bits, 4096 → 18 bits, 65536 → 22 bits — past
// the 20-bit arena ceiling where selection moves to packed (see
// docs/performance.md §9).
void CmiKernelBench(benchmark::State& state, bool dense, size_t n,
                    int32_t card_y) {
  auto x = RandomVar(n, 8, 1);
  auto y = RandomVar(n, card_y, 2);
  auto z = RandomVar(n, 8, 3);
  const int bx = info_internal::BitsFor(x.cardinality);
  const int by = info_internal::BitsFor(y.cardinality);
  const int bz = info_internal::BitsFor(z.cardinality);
  std::vector<info_cache::CubeEntry> entries;
  for (auto _ : state) {
    if (dense) {
      info_internal::BuildDenseEntries(x, y, z, nullptr, bx, by, bz,
                                       &entries);
    } else {
      info_internal::BuildPackedEntries(x, y, z, nullptr, bx, by, bz,
                                        &entries);
    }
    benchmark::DoNotOptimize(info_internal::CmiFromEntries(
        entries, info_internal::SumEntriesAscending(entries),
        EntropyOptions{}, bx, by, bz));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

// arg0 = rows, arg1 = |Y|.
void BM_CmiKernelDense(benchmark::State& state) {
  CmiKernelBench(state, /*dense=*/true, static_cast<size_t>(state.range(0)),
                 static_cast<int32_t>(state.range(1)));
}
void BM_CmiKernelPacked(benchmark::State& state) {
  CmiKernelBench(state, /*dense=*/false, static_cast<size_t>(state.range(0)),
                 static_cast<int32_t>(state.range(1)));
}
BENCHMARK(BM_CmiKernelDense)
    ->Args({100'000, 64})
    ->Args({100'000, 4'096})
    ->Args({100'000, 65'536})
    ->Args({1'000'000, 4'096});
BENCHMARK(BM_CmiKernelPacked)
    ->Args({100'000, 64})
    ->Args({100'000, 4'096})
    ->Args({100'000, 65'536})
    ->Args({1'000'000, 4'096});

// The packed kernel's radix sort is morsel-parallel (the dense arena is
// single-threaded by construction): the 1M-row arm across pool sizes
// shows what the sweep buys. UseRealTime: work runs on pool threads.
void BM_CmiKernelPackedThreadSweep(benchmark::State& state) {
  const size_t prev_threads = NumThreads();
  SetNumThreads(static_cast<size_t>(state.range(0)));
  CmiKernelBench(state, /*dense=*/false, 1'000'000, 4'096);
  SetNumThreads(prev_threads);
}
BENCHMARK(BM_CmiKernelPackedThreadSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace mesa

BENCHMARK_MAIN();
