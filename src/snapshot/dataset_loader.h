#ifndef MESA_SNAPSHOT_DATASET_LOADER_H_
#define MESA_SNAPSHOT_DATASET_LOADER_H_

/// The one dataset loader behind `mesa_cli explain` and the daemon's
/// Router::AddDataset, so both accept the same sources, reject the same
/// mistakes with the same text, and load byte-identical datasets.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "kg/triple_store.h"
#include "table/table.h"

namespace mesa {

/// A dataset on disk: a CSV (+ optional `.kg` and the columns to extract
/// from it) or a binary snapshot, which carries its own KG and extraction
/// columns (docs/snapshot_format.md). Exactly one of csv_path /
/// snapshot_path is set.
struct DatasetSource {
  std::string csv_path;
  std::string snapshot_path;
  std::string kg_path;                          ///< CSV only; empty = no KG.
  std::vector<std::string> extraction_columns;  ///< CSV only.
};

struct LoadedDataset {
  Table table;
  std::shared_ptr<TripleStore> kg;              ///< null without a KG.
  std::vector<std::string> extraction_columns;  ///< empty without a KG.
};

/// Checks the source's shape without touching the disk: exactly one data
/// path, no KG path or extraction columns next to a snapshot, and
/// extraction columns for every KG. InvalidArgument on any violation.
Status ValidateDatasetSource(const DatasetSource& source);

/// Validates `source`, then reads it. A snapshot whose KG comes without
/// extraction columns is rejected with InvalidArgument; read and parse
/// failures pass through with the reader's status.
Result<LoadedDataset> LoadDataset(const DatasetSource& source);

}  // namespace mesa

#endif  // MESA_SNAPSHOT_DATASET_LOADER_H_
