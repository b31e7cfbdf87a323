#include "snapshot/dataset_loader.h"

#include <utility>

#include "common/metrics.h"
#include "kg/serialization.h"
#include "snapshot/reader.h"
#include "table/csv.h"

namespace mesa {

Status ValidateDatasetSource(const DatasetSource& source) {
  if (source.csv_path.empty() == source.snapshot_path.empty()) {
    return Status::InvalidArgument(
        "exactly one of a CSV and a snapshot is required");
  }
  if (!source.snapshot_path.empty()) {
    if (!source.kg_path.empty() || !source.extraction_columns.empty()) {
      return Status::InvalidArgument(
          "a snapshot carries its own KG and extraction columns; give "
          "neither a KG nor extraction columns with it");
    }
  } else if (!source.kg_path.empty() && source.extraction_columns.empty()) {
    return Status::InvalidArgument("a KG needs extraction columns");
  }
  return Status::OK();
}

Result<LoadedDataset> LoadDataset(const DatasetSource& source) {
  MESA_RETURN_IF_ERROR(ValidateDatasetSource(source));
  LoadedDataset out;
  if (!source.snapshot_path.empty()) {
    MESA_SPAN("load/snapshot");
    MESA_ASSIGN_OR_RETURN(snapshot::SnapshotReader reader,
                          snapshot::SnapshotReader::Open(source.snapshot_path));
    MESA_ASSIGN_OR_RETURN(out.table, reader.ReadTable());
    if (reader.has_kg()) {
      if (reader.extraction_columns().empty()) {
        return Status::InvalidArgument(
            "snapshot " + source.snapshot_path +
            " has a KG but no extraction columns");
      }
      MESA_ASSIGN_OR_RETURN(out.kg, reader.ReadKg());
      out.extraction_columns = reader.extraction_columns();
    }
    return out;
  }
  {
    MESA_SPAN("load/csv");
    MESA_ASSIGN_OR_RETURN(out.table, ReadCsvFile(source.csv_path));
  }
  if (!source.kg_path.empty()) {
    MESA_SPAN("load/kg");
    MESA_ASSIGN_OR_RETURN(TripleStore kg, ReadKgFile(source.kg_path));
    out.kg = std::make_shared<TripleStore>(std::move(kg));
    out.extraction_columns = source.extraction_columns;
  }
  return out;
}

}  // namespace mesa
