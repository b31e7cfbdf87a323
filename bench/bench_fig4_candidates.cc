// Reproduces Figure 4: running time as a function of the number of
// candidate attributes, for No-Pruning (MCIMR over everything), Offline
// Pruning only, and full MCIMR (offline + online pruning). The candidate
// space is scaled by growing the synthetic KG's per-entity attribute
// vocabulary, so preparation, pruning, and selection all see the larger
// |A| — matching the paper's protocol of varying the extracted set.

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "kg/endpoint.h"
#include "kg/extractor.h"
#include "kg/resilient_client.h"

namespace mesa {
namespace bench {
namespace {

struct VariantTimes {
  size_t candidates = 0;
  double no_pruning = 0.0;
  double offline_only = 0.0;
  double full = 0.0;
  // CMI-estimator evaluations per variant (the paper's cost unit; what
  // pruning actually saves).
  uint64_t no_pruning_evals = 0;
  uint64_t offline_only_evals = 0;
  uint64_t full_evals = 0;
};

VariantTimes TimeAtWidth(DatasetKind kind, size_t rows, size_t noise_attrs) {
  GenOptions gen;
  gen.rows = rows;
  gen.kg_noise_attributes = noise_attrs;
  auto ds = MakeDataset(kind, gen);
  MESA_CHECK(ds.ok());
  const QuerySpec query = CanonicalQueries(kind)[0].query;

  VariantTimes out;
  auto run = [&](bool offline, bool online, double* seconds,
                 uint64_t* evals) {
    MesaOptions options;
    options.enable_offline_pruning = offline;
    options.enable_online_pruning = online;
    Mesa mesa(ds->table, ds->kg.get(), ds->extraction_columns, options);
    EvalCounts before = ReadEvalCounts();
    Timer timer;
    auto rep = mesa.Explain(query);
    MESA_CHECK(rep.ok());
    *seconds = timer.Seconds();
    *evals = (ReadEvalCounts() - before).cmi;
    out.candidates = std::max(out.candidates, rep->candidates_total);
  };
  run(false, false, &out.no_pruning, &out.no_pruning_evals);
  run(true, false, &out.offline_only, &out.offline_only_evals);
  run(true, true, &out.full, &out.full_evals);
  return out;
}

void RunDataset(DatasetKind kind) {
  size_t rows = kind == DatasetKind::kFlights ? 40000 : BenchRows(kind);
  std::printf("\n--- %s (%zu rows) ---\n", DatasetKindName(kind), rows);
  std::printf("  %s %s %s %s %s\n", Pad("#candidates", 12).c_str(),
              Pad("No-Pruning", 12).c_str(), Pad("Offline", 12).c_str(),
              Pad("MCIMR", 12).c_str(), Pad("cmi evals (np/off/full)", 24).c_str());
  for (size_t noise : {6u, 20u, 48u, 96u}) {
    VariantTimes t = TimeAtWidth(kind, rows, noise);
    std::printf("  %s %-12.3f %-12.3f %-12.3f %llu/%llu/%llu\n",
                Pad(std::to_string(t.candidates), 12).c_str(), t.no_pruning,
                t.offline_only, t.full,
                static_cast<unsigned long long>(t.no_pruning_evals),
                static_cast<unsigned long long>(t.offline_only_evals),
                static_cast<unsigned long long>(t.full_evals));
  }
}

// Resilience overhead: the extraction's KG lookup sequence (Resolve each
// distinct key, Properties for each linked entity — hops = 1) straight
// off the TripleStore vs through ResilientKgClient over a fault-free
// LocalEndpoint (the path the Mesa pipeline now uses; see
// docs/robustness.md). A single pass is tens of microseconds — far below
// the timing noise of a busy host — so each arm is timed in alternating
// ~0.25 s blocks of many passes and compared at the best block. The
// per-pass delta is then expressed against the wall time of the full
// extraction+augmentation it rides in: that ratio is what the < 2%
// budget bounds. The client is rebuilt per pass so its response cache
// never carries across passes — every pass pays the full lookup load,
// exactly like the raw arm.
void RunResilienceOverhead() {
  auto ds = MakeDataset(DatasetKind::kStackOverflow, GenOptions{20000});
  MESA_CHECK(ds.ok());
  const TripleStore* kg = ds->kg.get();
  const EntityLinkerOptions lopts;

  // The distinct lookup keys of the extraction, exactly as the extractor
  // derives them (sorted distinct values per extraction column).
  std::vector<std::string> keys;
  for (const std::string& column : ds->extraction_columns) {
    auto col = ds->table.ColumnByName(column);
    MESA_CHECK(col.ok());
    std::set<std::string> distinct;
    for (size_t r = 0; r < (*col)->size(); ++r) {
      if ((*col)->IsValid(r)) distinct.insert((*col)->StringAt(r));
    }
    keys.insert(keys.end(), distinct.begin(), distinct.end());
  }

  size_t lookups = 0;
  auto raw_pass = [&]() -> size_t {
    size_t sink = 0;
    EntityLinker linker(kg, lopts);
    for (const std::string& key : keys) {
      LinkResult link = linker.Link(key);
      if (!link.linked()) continue;
      for (const Triple* t : kg->PropertiesOf(*link.entity)) {
        sink += kg->predicate_name(t->predicate).size() +
                (t->object.is_entity()
                     ? kg->entity(t->object.entity).label.size()
                     : 1);
      }
    }
    return sink;
  };
  auto client_pass = [&]() -> size_t {
    size_t sink = 0;
    ResilientKgClient client(std::make_shared<LocalEndpoint>(kg));
    for (const std::string& key : keys) {
      Result<LinkResult> link = client.Resolve(key, lopts);
      MESA_CHECK(link.ok());
      if (!link->linked()) continue;
      Result<std::vector<KgProperty>> props =
          client.Properties(*link->entity);
      MESA_CHECK(props.ok());
      for (const KgProperty& p : *props) {
        sink += p.predicate.size() +
                (p.is_entity ? p.entity_label.size() : 1);
      }
    }
    lookups = client.counters().calls;
    return sink;
  };

  volatile size_t sink = raw_pass() + client_pass();  // warm-up
  // Size one timed block to ~0.25 s of passes.
  size_t passes = 1;
  {
    Timer t;
    sink = sink + raw_pass();
    double one = std::max(t.Seconds(), 1e-6);
    passes = std::max<size_t>(1, static_cast<size_t>(0.25 / one));
  }
  constexpr int kCycles = 3;
  double raw_best = 1e9, cli_best = 1e9;
  for (int c = 0; c < kCycles; ++c) {
    Timer tr;
    for (size_t i = 0; i < passes; ++i) sink = sink + raw_pass();
    raw_best = std::min(raw_best, tr.Seconds() / passes);
    Timer tc;
    for (size_t i = 0; i < passes; ++i) sink = sink + client_pass();
    cli_best = std::min(cli_best, tc.Seconds() / passes);
  }

  // The pipeline this overhead actually lands in.
  double augment_s = 1e9;
  for (int i = 0; i < 3; ++i) {
    ResilientKgClient client(std::make_shared<LocalEndpoint>(kg));
    Timer t;
    auto aug = AugmentTableFromKg(ds->table, ds->extraction_columns, &client);
    MESA_CHECK(aug.ok());
    augment_s = std::min(augment_s, t.Seconds());
  }

  double delta_ms = (cli_best - raw_best) * 1e3;
  std::printf(
      "\nresilient-client overhead (so, 20000 rows, fault rate 0,\n"
      "alternating ~0.25s A/B blocks, best of %d):\n"
      "  lookup sequence (%zu lookups): raw %.3fms, client %.3fms per pass\n"
      "  -> %+.3fms per extraction = %+.2f%% of the %.1fms "
      "extraction+augment (budget: < 2%%)\n",
      kCycles, lookups, raw_best * 1e3, cli_best * 1e3, delta_ms,
      100.0 * (cli_best - raw_best) / augment_s, augment_s * 1e3);
}

void Run() {
  std::printf("=== Figure 4: runtime vs number of candidate attributes ===\n");
  std::printf("(seconds per explanation, end to end: extraction already "
              "cached,\n prepare + prune + MCIMR timed)\n");
  RunDataset(DatasetKind::kStackOverflow);
  RunDataset(DatasetKind::kFlights);
  RunDataset(DatasetKind::kForbes);
  RunResilienceOverhead();
  std::printf(
      "\nShape check (paper): near-linear growth in |A|; No-Pruning is the\n"
      "slowest; on the small Forbes dataset online pruning overhead can\n"
      "exceed its savings.\n");
}

}  // namespace
}  // namespace bench
}  // namespace mesa

int main() {
  mesa::bench::Run();
  return 0;
}
