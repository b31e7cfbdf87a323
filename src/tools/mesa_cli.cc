// mesa_cli — command-line front end for the MESA library.
//
// Subcommands:
//   gen      generate one of the four evaluation worlds to CSV + KG files
//   explain  explain an aggregate SQL query over a CSV (+ optional KG)
//
// Examples:
//   mesa_cli gen --dataset so --rows 20000 --out /tmp/so
//   mesa_cli explain --data /tmp/so.csv --kg /tmp/so.kg \
//       --extract Country,Continent \
//       --query "SELECT Country, avg(Salary) FROM so GROUP BY Country" \
//       --subgroups Continent,Gender
//
// Exit codes: 0 success, 1 usage error, 2 runtime error.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "core/baselines/top_k.h"
#include "core/mesa.h"
#include "core/report_format.h"
#include "datagen/registry.h"
#include "info/info_cache.h"
#include "kg/serialization.h"
#include "snapshot/dataset_loader.h"
#include "snapshot/writer.h"
#include "table/csv.h"

namespace mesa {
namespace {

int Usage() {
  std::fprintf(stderr, R"(usage:
  mesa_cli gen --dataset so|covid|flights|forbes [--rows N] [--seed S] --out PREFIX
      Writes PREFIX.csv (the dataset) and PREFIX.kg (the knowledge graph).

  mesa_cli explain (--data FILE.csv | --snapshot FILE.msnap) --query SQL
      [--kg FILE.kg --extract Col1,Col2]   mine confounders from this KG
                                           (--data form only; a snapshot
                                           already carries its KG)
      [--save-snapshot FILE.msnap]         write the loaded dataset bundle
                                           as a binary snapshot; with no
                                           --query, convert and exit
      [--k N]                              max explanation size (default 5)
      [--hops N]                           KG extraction depth (default 1)
      [--no-prune]                         disable offline+online pruning
      [--subgroups Col1,Col2]              also search unexplained subgroups
      [--baseline topk]                    also print the Top-K baseline
      [--trace]                            show MCIMR's selection steps
      [--metrics[=FILE]]                   dump the metrics/tracing JSON
                                           snapshot (stdout, or to FILE);
                                           includes the info_cache/* hit
                                           and miss counters
      [--info-cache on|off]                sufficient-statistics cache for
                                           the entropy/MI/CMI kernels
                                           (default: $MESA_INFO_CACHE, or
                                           on; see docs/performance.md)
      [--fault-plan PLAN]                  inject KG endpoint faults, e.g.
                                           "seed=7;timeout=0.2;latency=1:5"
                                           (default: $MESA_FAULT_PLAN;
                                           see docs/robustness.md)
      [--min-coverage F]                   fail if fewer than this fraction
                                           of KG key values survive lookup
                                           failures (default 0 = never)
)");
  return 1;
}

// Minimal --flag value parser; flags may appear once. Values attach
// either as the next argument (`--k 5`) or inline (`--k=5`); flags that
// are valid without a value (`--metrics`) default to "true".
class Flags {
 public:
  Flags(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected argument: " + arg;
        return;
      }
      std::string name = arg.substr(2);
      size_t eq = name.find('=');
      if (eq != std::string::npos) {
        values_[name.substr(0, eq)] = name.substr(eq + 1);
        continue;
      }
      if (name == "no-prune" || name == "trace" || name == "metrics") {
        values_[name] = "true";
        continue;
      }
      if (i + 1 >= argc) {
        error_ = "flag --" + name + " needs a value";
        return;
      }
      values_[name] = argv[++i];
    }
  }

  const std::string& error() const { return error_; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& dflt = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second;
  }
  // Reads a non-negative integer flag into *out (left at its default
  // when the flag is absent). False, with a message, on anything else.
  bool GetCount(const std::string& name, size_t* out) const {
    auto it = values_.find(name);
    if (it == values_.end()) return true;
    int64_t v = 0;
    if (!ParseInt64(it->second, &v) || v < 0) {
      std::fprintf(stderr, "--%s must be a non-negative integer, got '%s'\n",
                   name.c_str(), it->second.c_str());
      return false;
    }
    *out = static_cast<size_t>(v);
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int RunGen(const Flags& flags) {
  std::string name = ToLower(flags.Get("dataset"));
  DatasetKind kind;
  if (name == "so") {
    kind = DatasetKind::kStackOverflow;
  } else if (name == "covid") {
    kind = DatasetKind::kCovid;
  } else if (name == "flights") {
    kind = DatasetKind::kFlights;
  } else if (name == "forbes") {
    kind = DatasetKind::kForbes;
  } else {
    std::fprintf(stderr, "unknown --dataset '%s'\n", name.c_str());
    return 1;
  }
  std::string out = flags.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "--out PREFIX is required\n");
    return 1;
  }
  GenOptions gen;
  size_t seed = gen.seed;
  if (!flags.GetCount("rows", &gen.rows) || !flags.GetCount("seed", &seed)) {
    return 1;
  }
  gen.seed = seed;
  auto ds = MakeDataset(kind, gen);
  if (!ds.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 ds.status().ToString().c_str());
    return 2;
  }
  Status csv = WriteCsvFile(ds->table, out + ".csv");
  Status kg = WriteKgFile(*ds->kg, out + ".kg");
  if (!csv.ok() || !kg.ok()) {
    std::fprintf(stderr, "write failed: %s %s\n", csv.ToString().c_str(),
                 kg.ToString().c_str());
    return 2;
  }
  std::printf("wrote %s.csv (%zu rows) and %s.kg (%zu entities, %zu triples)\n",
              out.c_str(), ds->table.num_rows(), out.c_str(),
              ds->kg->num_entities(), ds->kg->num_triples());
  std::printf("extraction columns: ");
  for (size_t i = 0; i < ds->extraction_columns.size(); ++i) {
    std::printf("%s%s", i ? "," : "", ds->extraction_columns[i].c_str());
  }
  std::printf("\n");
  return 0;
}

int RunExplain(const Flags& flags) {
  std::string data = flags.Get("data");
  std::string snapshot_path = flags.Get("snapshot");
  std::string save_snapshot = flags.Get("save-snapshot");
  std::string sql = flags.Get("query");
  if (sql.empty() && save_snapshot.empty()) {
    std::fprintf(stderr,
                 "--query is required (omit it only with --save-snapshot "
                 "to just convert)\n");
    return 1;
  }

  if (flags.Has("info-cache")) {
    std::string v = flags.Get("info-cache");
    if (v == "on" || v == "off") {
      info_cache::SetEnabled(v == "on");
    } else {
      std::fprintf(stderr, "--info-cache must be 'on' or 'off'\n");
      return 1;
    }
  }

  MesaOptions options;
  if (!flags.GetCount("hops", &options.extraction.hops) ||
      !flags.GetCount("k", &options.mcimr.max_size)) {
    return 1;
  }
  if (flags.Has("no-prune")) {
    options.enable_offline_pruning = false;
    options.enable_online_pruning = false;
  }
  options.fault_plan = flags.Get("fault-plan");
  if (flags.Has("min-coverage")) {
    double floor = 0.0;
    if (!ParseDouble(flags.Get("min-coverage"), &floor) || floor < 0.0 ||
        floor > 1.0) {
      std::fprintf(stderr, "--min-coverage must be a fraction in [0,1]\n");
      return 1;
    }
    options.extraction.min_coverage = floor;
  }

  DatasetSource source{data, snapshot_path, flags.Get("kg"), {}};
  for (auto& col : Split(flags.Get("extract"), ',')) {
    if (!col.empty()) source.extraction_columns.push_back(col);
  }
  Status valid = ValidateDatasetSource(source);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.message().c_str());
    return 1;
  }
  auto dataset = LoadDataset(source);
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot load dataset: %s\n",
                 dataset.status().ToString().c_str());
    return 2;
  }
  Table& table = dataset->table;
  const TripleStore* kg_ptr = dataset->kg.get();
  const std::vector<std::string>& extract = dataset->extraction_columns;

  if (!save_snapshot.empty()) {
    snapshot::SnapshotWriter writer;
    writer.SetTable(&table);
    if (kg_ptr != nullptr) writer.SetKg(kg_ptr);
    writer.SetExtractionColumns(extract);
    Status written = writer.WriteFile(save_snapshot);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write snapshot: %s\n",
                   written.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s (%zu rows, %zu columns%s)\n", save_snapshot.c_str(),
                table.num_rows(), table.num_columns(),
                kg_ptr != nullptr ? ", with KG" : "");
    if (sql.empty()) return 0;
  }

  Mesa mesa(std::move(table), kg_ptr, extract, options);
  auto query = ParseQuery(sql);
  if (!query.ok()) {
    std::fprintf(stderr, "bad query: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  auto report = mesa.Explain(*query);
  if (!report.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }

  ReportFormatOptions fmt;
  fmt.show_trace = flags.Has("trace");
  std::fputs(FormatReport(*report, fmt).c_str(), stdout);

  if (flags.Get("baseline") == "topk") {
    auto pq = mesa.PrepareQuery(*query);
    if (pq.ok()) {
      Explanation topk = RunTopK(*pq->analysis, pq->candidate_indices,
                                 options.mcimr.max_size);
      std::printf("top-k baseline: %s (I=%.4f)\n", topk.ToString().c_str(),
                  topk.final_cmi);
    }
  }

  if (flags.Has("subgroups")) {
    SubgroupOptions sg;
    sg.threshold = 0.05 * report->base_cmi;
    for (auto& col : Split(flags.Get("subgroups"), ',')) {
      if (!col.empty()) sg.refinement_attributes.push_back(col);
    }
    auto groups = mesa.FindSubgroups(*query,
                                     report->explanation.attribute_names, sg);
    if (groups.ok()) std::fputs(FormatSubgroups(*groups).c_str(), stdout);
  }

  // --metrics / --metrics=FILE: one JSON object with every counter and
  // span distribution recorded during this run (see docs/observability.md
  // for the schema).
  if (flags.Has("metrics")) {
    std::string json = metrics::SnapshotJson();
    std::string path = flags.Get("metrics");
    if (path.empty() || path == "true") {
      std::printf("%s\n", json.c_str());
    } else {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write metrics to %s\n", path.c_str());
        return 2;
      }
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return Usage();
  }
  if (command == "gen") return RunGen(flags);
  if (command == "explain") return RunExplain(flags);
  return Usage();
}

}  // namespace
}  // namespace mesa

int main(int argc, char** argv) { return mesa::Main(argc, argv); }
