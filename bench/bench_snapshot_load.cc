// Cold-start readout for binary snapshots (docs/performance.md §8,
// docs/snapshot_format.md): what `--snapshot FILE.msnap` buys over
// parsing CSV + .kg text at process start.
//
// Three load paths per dataset, best of kTrials (the first trial also
// warms the page cache, so "best" isolates the parse/validate compute
// from disk):
//
//   parse      ReadCsvFile + ReadKgFile — what `mesa_cli --data` and a
//              mesa_serve CSV spec pay on every start;
//   snapshot   SnapshotReader::Open + ReadTable + ReadKg with full
//              CRC-32C verification (the default);
//   table-only Open + ReadTable with verify_checksums=false — the pure
//              zero-copy path: O(metadata) validation, columns borrowed
//              straight from the mapping (the KG always rebuilds its
//              hash indexes, so it is excluded here by design).
//
// Each timed load runs in-process on the global pool (MESA_NUM_THREADS):
// the CSV parse runs morsel-parallel; the snapshot paths and the .kg
// parse are single-threaded.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "kg/serialization.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "table/csv.h"

namespace mesa {
namespace bench {
namespace {

constexpr int kTrials = 5;

long FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  MESA_CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

double BestOf(int trials, double (*fn)(const std::string&,
                                       const std::string&),
              const std::string& a, const std::string& b) {
  double best = fn(a, b);
  for (int i = 1; i < trials; ++i) {
    double t = fn(a, b);
    if (t < best) best = t;
  }
  return best;
}

double ParseLoad(const std::string& csv_path, const std::string& kg_path) {
  Timer timer;
  auto table = ReadCsvFile(csv_path);
  MESA_CHECK(table.ok());
  auto kg = ReadKgFile(kg_path);
  MESA_CHECK(kg.ok());
  MESA_CHECK(table->num_rows() > 0 && kg->num_triples() > 0);
  return timer.Seconds();
}

double SnapshotLoad(const std::string& snap_path, const std::string&) {
  Timer timer;
  auto reader = snapshot::SnapshotReader::Open(snap_path);
  MESA_CHECK(reader.ok());
  auto table = reader->ReadTable();
  MESA_CHECK(table.ok());
  auto kg = reader->ReadKg();
  MESA_CHECK(kg.ok());
  MESA_CHECK(table->num_rows() > 0 && (*kg)->num_triples() > 0);
  return timer.Seconds();
}

double SnapshotTableOnly(const std::string& snap_path, const std::string&) {
  Timer timer;
  snapshot::SnapshotReadOptions options;
  options.verify_checksums = false;
  auto reader = snapshot::SnapshotReader::Open(snap_path, options);
  MESA_CHECK(reader.ok());
  auto table = reader->ReadTable();
  MESA_CHECK(table.ok());
  MESA_CHECK(table->num_rows() > 0);
  return timer.Seconds();
}

void RunDataset(DatasetKind kind, const char* name) {
  GenOptions gen;
  gen.rows = BenchRows(kind);
  auto ds = MakeDataset(kind, gen);
  MESA_CHECK(ds.ok());

  const std::string prefix = std::string("/tmp/bench_snapshot_load.") + name;
  const std::string csv_path = prefix + ".csv";
  const std::string kg_path = prefix + ".kg";
  const std::string snap_path = prefix + ".msnap";
  MESA_CHECK(WriteCsvFile(ds->table, csv_path).ok());
  MESA_CHECK(WriteKgFile(*ds->kg, kg_path).ok());
  snapshot::SnapshotWriter writer;
  writer.SetTable(&ds->table);
  writer.SetKg(ds->kg.get());
  writer.SetExtractionColumns(ds->extraction_columns);
  MESA_CHECK(writer.WriteFile(snap_path).ok());

  const double parse = BestOf(kTrials, ParseLoad, csv_path, kg_path);
  const double snap = BestOf(kTrials, SnapshotLoad, snap_path, kg_path);
  const double table_only =
      BestOf(kTrials, SnapshotTableOnly, snap_path, kg_path);

  std::printf("%s  %7zu  %8ld  %7ld  %9.2f  %12.2f  %13.2f  %6.1fx\n",
              Pad(name, 8).c_str(), ds->table.num_rows(),
              FileBytes(csv_path) + FileBytes(kg_path), FileBytes(snap_path),
              parse * 1e3, snap * 1e3, table_only * 1e3, parse / snap);

  std::remove(csv_path.c_str());
  std::remove(kg_path.c_str());
  std::remove(snap_path.c_str());
}

void Run() {
  std::printf("cold-start load: CSV + .kg parse vs binary snapshot "
              "(best of %d, ms)\n\n", kTrials);
  std::printf("dataset      rows   txt(B)  msnap(B)  parse_ms  snapshot_ms  "
              "table_only_ms  speedup\n");
  RunDataset(DatasetKind::kCovid, "covid");
  RunDataset(DatasetKind::kFlights, "flights");
  std::printf(
      "\nsnapshot_ms includes full CRC verification and the KG index\n"
      "rebuild; table_only_ms is the pure zero-copy table path\n"
      "(verify_checksums=false). parse_ms runs the CSV reader on a\n"
      "%zu-lane pool; the snapshot paths are single-threaded.\n",
      NumThreads());
}

}  // namespace
}  // namespace bench
}  // namespace mesa

int main() { mesa::bench::Run(); }
