// Micro-benchmarks (google-benchmark) for the core explanation machinery
// over the SO world: query preparation (with a warm and an emptied
// preparation memo), the NextBestAtt inner loop, joint
// conditioning-set evaluation, the identification guard, full MCIMR, and
// the unexplained-subgroup search. These are the building blocks behind
// Figures 4-6.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/logging.h"
#include "core/mcimr.h"
#include "core/mesa.h"
#include "core/pruning.h"
#include "core/subgroups.h"
#include "datagen/registry.h"
#include "missing/bias_memo.h"

namespace mesa {
namespace {

struct SoFixture {
  GeneratedDataset dataset;
  std::unique_ptr<Mesa> mesa;
  Mesa::PreparedQuery pq;
  QuerySpec query;

  static SoFixture& Get() {
    static SoFixture* fixture = [] {
      auto* f = new SoFixture();
      GenOptions gen;
      gen.rows = 20000;
      auto ds = MakeDataset(DatasetKind::kStackOverflow, gen);
      MESA_CHECK(ds.ok());
      f->dataset = std::move(*ds);
      f->mesa = std::make_unique<Mesa>(f->dataset.table, f->dataset.kg.get(),
                                       f->dataset.extraction_columns);
      f->query = CanonicalQueries(DatasetKind::kStackOverflow)[0].query;
      auto pq = f->mesa->PrepareQuery(f->query);
      MESA_CHECK(pq.ok());
      f->pq = std::move(*pq);
      return f;
    }();
    return *fixture;
  }
};

void BM_PrepareQuery(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  for (auto _ : state) {
    auto pq = f.mesa->PrepareQuery(f.query);
    benchmark::DoNotOptimize(pq);
  }
}
BENCHMARK(BM_PrepareQuery)->Unit(benchmark::kMillisecond);

// The same with the preparation memo (docs/performance.md §2.6) emptied
// before each iteration: every candidate's selection-bias tests and
// propensity fits run again, while the discretizer and info caches stay
// warm. The gap to BM_PrepareQuery is what the memo saves.
void BM_PrepareQueryColdMemo(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  for (auto _ : state) {
    state.PauseTiming();
    ClearBiasMemo();
    state.ResumeTiming();
    auto pq = f.mesa->PrepareQuery(f.query);
    benchmark::DoNotOptimize(pq);
  }
}
BENCHMARK(BM_PrepareQueryColdMemo)->Unit(benchmark::kMillisecond);

void BM_NextBestAttributeColdCache(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  McimrOptions opts;
  for (auto _ : state) {
    state.PauseTiming();
    // A fresh analysis so per-candidate CMI caches start cold.
    auto pq = f.mesa->PrepareQuery(f.query);
    MESA_CHECK(pq.ok());
    state.ResumeTiming();
    double score = 0;
    benchmark::DoNotOptimize(NextBestAttribute(
        *pq->analysis, pq->candidate_indices, {}, opts, &score));
  }
}
BENCHMARK(BM_NextBestAttributeColdCache)->Unit(benchmark::kMillisecond);

void BM_CmiGivenPair(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  auto& a = *f.pq.analysis;
  size_t i = f.pq.candidate_indices[0];
  size_t j = f.pq.candidate_indices[1];
  for (auto _ : state) {
    // Fresh set each iteration defeats the set cache via alternating order.
    benchmark::DoNotOptimize(a.CmiGivenSet({i, j}));
    benchmark::DoNotOptimize(a.CmiGivenSet({j, i}));  // cache hit path
  }
}
BENCHMARK(BM_CmiGivenPair)->Unit(benchmark::kMicrosecond);

void BM_IdentificationFraction(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  auto& a = *f.pq.analysis;
  std::vector<size_t> set = {f.pq.candidate_indices[0],
                             f.pq.candidate_indices[1]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IdentificationFraction(set));
  }
}
BENCHMARK(BM_IdentificationFraction)->Unit(benchmark::kMicrosecond);

void BM_FullMcimr(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  for (auto _ : state) {
    state.PauseTiming();
    auto pq = f.mesa->PrepareQuery(f.query);
    MESA_CHECK(pq.ok());
    state.ResumeTiming();
    benchmark::DoNotOptimize(RunMcimr(*pq->analysis, pq->candidate_indices));
  }
}
BENCHMARK(BM_FullMcimr)->Unit(benchmark::kMillisecond);

void BM_OnlinePrune(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  for (auto _ : state) {
    state.PauseTiming();
    auto pq = f.mesa->PrepareQuery(f.query);
    MESA_CHECK(pq.ok());
    state.ResumeTiming();
    benchmark::DoNotOptimize(OnlinePrune(*pq->analysis));
  }
}
BENCHMARK(BM_OnlinePrune)->Unit(benchmark::kMillisecond);

void BM_SubgroupSearch(benchmark::State& state) {
  SoFixture& f = SoFixture::Get();
  auto rep = f.mesa->Explain(f.query);
  MESA_CHECK(rep.ok());
  SubgroupOptions opts;
  opts.threshold = 0.05 * rep->base_cmi;
  opts.refinement_attributes = {"Continent", "Gender", "DevType"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.mesa->FindSubgroups(
        f.query, rep->explanation.attribute_names, opts));
  }
}
BENCHMARK(BM_SubgroupSearch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mesa

BENCHMARK_MAIN();
