#ifndef MESA_TABLE_CSV_H_
#define MESA_TABLE_CSV_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace mesa {

/// Options for CSV parsing.
struct CsvReadOptions {
  char delimiter = ',';
  /// Treat the first row as a header (column names). Required true for now.
  bool has_header = true;
  /// Cell spellings interpreted as null, compared case-insensitively.
  std::vector<std::string> null_tokens = {"", "NULL", "NA", "N/A", "nan"};
  /// Columns with a declared type skip inference and parse *strictly*: a
  /// non-null cell that does not parse as the declared type (including an
  /// int64 literal that would overflow) fails the whole read with
  /// InvalidArgument instead of silently degrading the column to a wider
  /// type. Keyed by header name; names absent from the CSV are an error.
  std::map<std::string, DataType> declared_types;
};

/// The reader cuts the body into morsels of about this many bytes, each
/// ending after the first newline outside quotes at or past this size,
/// and parses the morsels in parallel. A constant, so the cut never
/// depends on the thread count; an input below it is one morsel.
inline constexpr size_t kCsvMorselBytes = 64 * 1024;

/// Parses CSV text into a Table with per-column type inference:
/// a column is int64 if every non-null cell parses as an integer, else
/// double if every non-null cell parses as a number, else bool if every
/// non-null cell is true/false, else string. One leading UTF-8 byte-order
/// mark is skipped.
///
/// Structural damage is never repaired silently: a record with the wrong
/// field count (e.g. a truncated final row) and a quoted field left open
/// at end of input both fail with InvalidArgument.
///
/// Morsels parse in parallel, each cell once; the table and any error
/// (the first in file order, with byte offsets and data rows counted over
/// the whole input) are the same at every thread count.
Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options = {});

/// Reads a CSV file from disk in one read. A path that cannot be opened
/// or read (e.g. a directory) is an IOError naming it.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options = {});

/// Serialises a table to CSV (RFC-4180-style quoting for cells containing
/// the delimiter, quotes, or newlines; nulls render as empty cells).
std::string WriteCsvString(const Table& table, char delimiter = ',');

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace mesa

#endif  // MESA_TABLE_CSV_H_
