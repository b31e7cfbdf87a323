// Tests for the deterministic parallel-execution layer (common/parallel.h)
// and for the thread-count invariance of everything built on it: the
// permutation CI test and full MCIMR explanations must be byte-identical
// at 1, 2, and 8 threads. This binary is also the primary TSan target
// (see docs/sanitizers.md).

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel_sort.h"
#include "common/rng.h"
#include "core/mcimr.h"
#include "core/mesa.h"
#include "datagen/registry.h"
#include "info/independence.h"

namespace mesa {
namespace {

// ------------------------------------------------------------- pool basics

TEST(ParallelFor, EmptyRange) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, [&](size_t) { ++calls; });
  ParallelFor(7, 3, [&](size_t) { ++calls; });
  ParallelForChunks(2, 2, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleElement) {
  std::vector<int> hits(1, 0);
  ParallelFor(0, 1, [&](size_t i) { hits[i]++; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  SetNumThreads(4);
  constexpr size_t kN = 10'000;
  std::vector<int> hits(kN, 0);
  ParallelFor(0, kN, [&](size_t i) { hits[i]++; });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, ChunksCoverRangeWithoutOverlap) {
  SetNumThreads(8);
  constexpr size_t kBegin = 17, kEnd = 4321;
  std::vector<int> hits(kEnd, 0);
  ParallelForChunks(kBegin, kEnd, [&](size_t lo, size_t hi) {
    ASSERT_LT(lo, hi);
    for (size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (size_t i = 0; i < kBegin; ++i) ASSERT_EQ(hits[i], 0);
  for (size_t i = kBegin; i < kEnd; ++i) ASSERT_EQ(hits[i], 1);
}

TEST(ParallelFor, NestedCallsRunInline) {
  SetNumThreads(4);
  constexpr size_t kOuter = 8, kInner = 500;
  std::vector<uint64_t> sums(kOuter, 0);
  ParallelFor(0, kOuter, [&](size_t o) {
    // A nested parallel call from a pool worker must not deadlock and must
    // still cover its whole range.
    uint64_t local = 0;
    std::vector<uint64_t> inner(kInner, 0);
    ParallelFor(0, kInner, [&](size_t i) { inner[i] = o * kInner + i; });
    for (uint64_t v : inner) local += v;
    sums[o] = local;
  });
  for (size_t o = 0; o < kOuter; ++o) {
    uint64_t expect = 0;
    for (size_t i = 0; i < kInner; ++i) expect += o * kInner + i;
    EXPECT_EQ(sums[o], expect);
  }
}

TEST(ParallelFor, PropagatesWorkerExceptionToCaller) {
  SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 1000,
                  [&](size_t i) {
                    if (i == 617) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<size_t> count{0};
  ParallelFor(0, 100, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 100u);
}

// Resizes the pool for one test and restores the previous size when the
// test ends, however it ends.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(size_t threads) : saved_(NumThreads()) {
    SetNumThreads(threads);
  }
  ~ThreadCountGuard() { SetNumThreads(saved_); }

 private:
  size_t saved_;
};

TEST(ParallelFor, SlowIndexDoesNotHoldUpTheRest) {
  // ParallelFor hands out single indices, so while index 0 blocks, the
  // other lanes finish every other index. A static split by lane count
  // would put index 1 behind index 0 in the same chunk, and index 0 would
  // time out waiting for it.
  ThreadCountGuard guard(4);
  constexpr size_t kN = 16;
  std::atomic<size_t> done{0};
  std::atomic<bool> saw_all{false};
  ParallelFor(0, kN, [&](size_t i) {
    if (i == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (done.load() < kN - 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      saw_all = done.load() == kN - 1;
    } else {
      ++done;
    }
  });
  EXPECT_TRUE(saw_all.load());
  EXPECT_EQ(done.load(), kN - 1);
}

TEST(ThreadPool, ResizeTakesEffectAndPreservesResults) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3u);
  auto sum = [] {
    return ParallelMapReduce<uint64_t>(
        0, 5000, 0, [](size_t i) { return static_cast<uint64_t>(i * i); },
        [](uint64_t a, uint64_t b) { return a + b; });
  };
  const uint64_t at3 = sum();
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1u);
  const uint64_t at1 = sum();
  SetNumThreads(8);
  EXPECT_EQ(NumThreads(), 8u);
  const uint64_t at8 = sum();
  EXPECT_EQ(at1, at3);
  EXPECT_EQ(at1, at8);
}

TEST(ParallelMapReduce, FloatSumBitIdenticalAcrossThreadCounts) {
  // Chunk boundaries depend only on the range, so even a non-associative
  // floating-point reduction is bit-identical at any thread count.
  auto sum = [] {
    return ParallelMapReduce<double>(
        0, 9999, 0.0,
        [](size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        [](double a, double b) { return a + b; });
  };
  SetNumThreads(1);
  const double serial = sum();
  for (size_t threads : {2, 3, 8}) {
    SetNumThreads(threads);
    const double parallel = sum();
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(MixSeed, DistinctStreamsPerIndex) {
  EXPECT_NE(MixSeed(42, 0), 42u);
  EXPECT_NE(MixSeed(42, 0), MixSeed(42, 1));
  EXPECT_NE(MixSeed(42, 0), MixSeed(43, 0));
  EXPECT_EQ(MixSeed(42, 7), MixSeed(42, 7));
}

// ------------------------------------------------- determinism end to end

CodedVariable RandomCoded(Rng& rng, size_t n, int32_t card) {
  CodedVariable v;
  v.cardinality = card;
  v.codes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.codes.push_back(static_cast<int32_t>(rng.NextBelow(card)));
  }
  return v;
}

TEST(Determinism, IndependenceResultInvariantAcrossThreadCounts) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(1000 + seed);
    const size_t n = 400 + 37 * seed;
    CodedVariable z = RandomCoded(rng, n, 4);
    CodedVariable x = RandomCoded(rng, n, 3);
    CodedVariable y;
    y.cardinality = 3;
    for (size_t i = 0; i < n; ++i) {
      y.codes.push_back(rng.NextBernoulli(0.5)
                            ? x.codes[i]
                            : static_cast<int32_t>(rng.NextBelow(3)));
    }
    IndependenceOptions opts;
    opts.seed = 77 + seed;
    opts.num_permutations = 99;
    SetNumThreads(1);
    IndependenceResult ref = ConditionalIndependenceTest(x, y, z, opts);
    for (size_t threads : {2, 8}) {
      SetNumThreads(threads);
      IndependenceResult r = ConditionalIndependenceTest(x, y, z, opts);
      EXPECT_EQ(ref.cmi, r.cmi) << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(ref.p_value, r.p_value)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(ref.independent, r.independent)
          << "seed=" << seed << " threads=" << threads;
    }
  }
  SetNumThreads(1);
}

// Compares every observable part of two explanations, bitwise on doubles.
void ExpectSameExplanation(const Explanation& a, const Explanation& b,
                           const std::string& label) {
  EXPECT_EQ(a.attribute_indices, b.attribute_indices) << label;
  EXPECT_EQ(a.attribute_names, b.attribute_names) << label;
  EXPECT_EQ(a.base_cmi, b.base_cmi) << label;
  EXPECT_EQ(a.final_cmi, b.final_cmi) << label;
  EXPECT_EQ(a.stopped_by_responsibility, b.stopped_by_responsibility) << label;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].attribute_index, b.trace[i].attribute_index) << label;
    EXPECT_EQ(a.trace[i].selection_score, b.trace[i].selection_score) << label;
    EXPECT_EQ(a.trace[i].cmi_after, b.trace[i].cmi_after) << label;
  }
}

GeneratedDataset MakeSmallDataset(uint64_t i) {
  const DatasetKind kinds[] = {DatasetKind::kStackOverflow,
                               DatasetKind::kCovid, DatasetKind::kFlights,
                               DatasetKind::kForbes};
  const DatasetKind kind = kinds[i % 4];
  GenOptions gen;
  gen.seed = 2000 + i;
  // Small row counts keep 20 datasets x 3 thread counts inside tier-1
  // budgets; Covid/Forbes use their (already small) paper defaults.
  if (kind == DatasetKind::kStackOverflow) gen.rows = 1200;
  if (kind == DatasetKind::kFlights) gen.rows = 1500;
  auto ds = MakeDataset(kind, gen);
  EXPECT_TRUE(ds.ok());
  return std::move(*ds);
}

TEST(Determinism, McimrExplanationInvariantAcrossThreadCounts) {
  for (uint64_t i = 0; i < 20; ++i) {
    GeneratedDataset ds = MakeSmallDataset(i);
    const QuerySpec query =
        CanonicalQueries(static_cast<DatasetKind>(i % 4)).front().query;

    auto explain = [&]() -> MesaReport {
      Mesa mesa(ds.table, ds.kg.get(), ds.extraction_columns);
      auto report = mesa.Explain(query);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      return std::move(*report);
    };

    SetNumThreads(1);
    MesaReport ref = explain();
    for (size_t threads : {2, 8}) {
      SetNumThreads(threads);
      MesaReport got = explain();
      const std::string label =
          "dataset=" + std::to_string(i) + " threads=" + std::to_string(threads);
      ExpectSameExplanation(ref.explanation, got.explanation, label);
      EXPECT_EQ(ref.base_cmi, got.base_cmi) << label;
      EXPECT_EQ(ref.final_cmi, got.final_cmi) << label;
      EXPECT_EQ(ref.candidates_after_online, got.candidates_after_online)
          << label;
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
  }
  SetNumThreads(1);
}

// ------------------------------------------------------------------ stress

TEST(Stress, ConcurrentCallersShareOnePool) {
  SetNumThreads(4);
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 200;
  std::vector<std::thread> callers;
  std::vector<uint64_t> results(kCallers, 0);
  std::atomic<bool> failed{false};
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &results, &failed] {
      uint64_t acc = 0;
      for (size_t round = 0; round < kRounds; ++round) {
        acc ^= ParallelMapReduce<uint64_t>(
            0, 512, 0,
            [c, round](size_t i) {
              return MixSeed(c * 31 + round, i);
            },
            [](uint64_t a, uint64_t b) { return a + b; });
      }
      results[c] = acc;
      if (acc == 0) failed = true;
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_FALSE(failed.load());
  // The same work done serially must agree with every concurrent caller.
  for (size_t c = 0; c < kCallers; ++c) {
    uint64_t expect = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      uint64_t sum = 0;
      for (size_t i = 0; i < 512; ++i) sum += MixSeed(c * 31 + round, i);
      expect ^= sum;
    }
    EXPECT_EQ(results[c], expect) << "caller " << c;
  }
}

// estimator_evaluations() is an *exact* count of distinct cached CMI/MI
// computations: when pool workers race to fill the same cache slot, only
// the winning store is counted. The count must therefore match the serial
// run at any thread count.
TEST(Determinism, EstimatorEvaluationsExactAcrossThreadCounts) {
  GeneratedDataset ds = MakeSmallDataset(1);  // Covid (188 rows)
  const QuerySpec q = CanonicalQueries(DatasetKind::kCovid).front().query;

  auto count_evals = [&](size_t threads) {
    SetNumThreads(threads);
    Mesa mesa(ds.table, ds.kg.get(), ds.extraction_columns);
    auto pq = mesa.PrepareQuery(q);
    EXPECT_TRUE(pq.ok());
    RunMcimr(*pq->analysis, pq->candidate_indices);
    return pq->analysis->estimator_evaluations();
  };

  const size_t serial = count_evals(1);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(count_evals(2), serial);
  EXPECT_EQ(count_evals(8), serial);
  SetNumThreads(1);
}

TEST(Stress, TwoConcurrentMesaRunsShareOnePool) {
  SetNumThreads(4);
  GeneratedDataset ds0 = MakeSmallDataset(1);  // Covid (188 rows)
  GeneratedDataset ds1 = MakeSmallDataset(3);  // Forbes (1647 rows)
  const QuerySpec q0 = CanonicalQueries(DatasetKind::kCovid).front().query;
  const QuerySpec q1 = CanonicalQueries(DatasetKind::kForbes).front().query;

  auto explain = [](const GeneratedDataset& ds, const QuerySpec& q) {
    Mesa mesa(ds.table, ds.kg.get(), ds.extraction_columns);
    auto report = mesa.Explain(q);
    EXPECT_TRUE(report.ok());
    return std::move(*report);
  };

  // Serial references first.
  MesaReport ref0 = explain(ds0, q0);
  MesaReport ref1 = explain(ds1, q1);

  // Then both explanations concurrently, twice each, on the shared pool —
  // a deadlock here would hang well past the test's runtime budget.
  MesaReport got0a, got0b, got1a, got1b;
  std::thread t0([&] {
    got0a = explain(ds0, q0);
    got0b = explain(ds0, q0);
  });
  std::thread t1([&] {
    got1a = explain(ds1, q1);
    got1b = explain(ds1, q1);
  });
  t0.join();
  t1.join();
  ExpectSameExplanation(ref0.explanation, got0a.explanation, "run 0a");
  ExpectSameExplanation(ref0.explanation, got0b.explanation, "run 0b");
  ExpectSameExplanation(ref1.explanation, got1a.explanation, "run 1a");
  ExpectSameExplanation(ref1.explanation, got1b.explanation, "run 1b");
  SetNumThreads(1);
}

// ------------------------------------------------------ stable radix sort

// The morsel-parallel LSD radix sort (common/parallel_sort.h) must equal
// std::stable_sort on every input — any key width, any size (straddling
// the serial-fallback threshold), any thread count.
TEST(StableRadixSort, MatchesStdSortAcrossWidthsSizesAndThreads) {
  for (int key_bits : {1, 8, 13, 24, 37, 64}) {
    const uint64_t mask = key_bits == 64
                              ? ~uint64_t{0}
                              : ((uint64_t{1} << key_bits) - 1);
    for (size_t n : {size_t{0}, size_t{1}, size_t{1000}, size_t{100000}}) {
      Rng rng(uint64_t(key_bits) * 1000 + n);
      std::vector<uint64_t> input(n);
      for (auto& k : input) k = rng.NextUint64() & mask;
      std::vector<uint64_t> expected = input;
      std::sort(expected.begin(), expected.end());
      for (size_t threads : {1, 2, 8}) {
        SetNumThreads(threads);
        std::vector<uint64_t> got = input;
        StableRadixSort(&got, key_bits);
        EXPECT_EQ(got, expected)
            << "bits=" << key_bits << " n=" << n << " threads=" << threads;
      }
    }
  }
  SetNumThreads(1);
}

// Stability is the property the packed CMI kernel leans on: rows with
// equal keys must come out in input order, and — since a stable sort's
// output is unique — the whole output must be identical at every thread
// count.
TEST(StableRadixSort, StableOnEqualKeysAndThreadCountInvariant) {
  struct Row {
    uint64_t key;
    uint32_t idx;
  };
  const size_t n = 120000;  // past the parallel threshold
  Rng rng(99);
  std::vector<Row> input(n);
  for (size_t i = 0; i < n; ++i) {
    // 64 distinct keys over 120k rows: ~2000 rows per tie group.
    input[i] = {rng.NextUint64() & 63, static_cast<uint32_t>(i)};
  }
  std::vector<Row> reference;
  for (size_t threads : {1, 2, 8}) {
    SetNumThreads(threads);
    std::vector<Row> rows = input;
    StableRadixSortByKey(&rows, 6, [](const Row& r) { return r.key; });
    for (size_t i = 1; i < n; ++i) {
      ASSERT_LE(rows[i - 1].key, rows[i].key) << "unsorted at " << i;
      if (rows[i - 1].key == rows[i].key) {
        ASSERT_LT(rows[i - 1].idx, rows[i].idx)
            << "stability violated at " << i << " threads=" << threads;
      }
    }
    if (reference.empty()) {
      reference = rows;
    } else {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(reference[i].key, rows[i].key) << "threads=" << threads;
        ASSERT_EQ(reference[i].idx, rows[i].idx) << "threads=" << threads;
      }
    }
  }
  SetNumThreads(1);
}

}  // namespace
}  // namespace mesa
