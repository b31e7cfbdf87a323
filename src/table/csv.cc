#include "table/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <string_view>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace mesa {

namespace {

// Splits one logical CSV record honouring quotes. `pos` points at the start
// of the record within `text` and is advanced past the trailing newline.
// A field that is a plain run of bytes is a view of `text`; one that must
// be unescaped (a quote, or a dropped '\r') is copied into `owned` and
// viewed there. Returns false when a quote is still open at end of input:
// the input was cut inside a quoted field (or a quote was never balanced)
// and the "record" consumed everything to EOF — the caller must reject it
// rather than store the tail of the file as one cell.
bool SplitRecord(std::string_view text, size_t* pos, char delim,
                 std::vector<std::string_view>* fields,
                 std::deque<std::string>* owned) {
  fields->clear();
  const size_t n = text.size();
  size_t i = *pos;
  for (;;) {
    const size_t start = i;
    while (i < n && text[i] != '"' && text[i] != delim && text[i] != '\n' &&
           text[i] != '\r') {
      ++i;
    }
    std::string_view field = text.substr(start, i - start);
    if (i < n && (text[i] == '"' || (text[i] == '\r' && delim != '\r'))) {
      std::string cur(field);
      bool in_quotes = false;
      for (; i < n; ++i) {
        const char c = text[i];
        if (in_quotes) {
          if (c != '"') {
            cur += c;
          } else if (i + 1 < n && text[i + 1] == '"') {
            cur += '"';
            ++i;
          } else {
            in_quotes = false;
          }
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == delim || c == '\n') {
          break;
        } else if (c != '\r') {
          cur += c;
        }
      }
      if (in_quotes) return false;
      field = owned->emplace_back(std::move(cur));
    }
    fields->push_back(field);
    if (i == n) {
      *pos = n;
      return true;
    }
    ++i;  // past the delimiter or the newline
    if (text[i - 1] != delim) {
      *pos = i;
      return true;
    }
  }
}

bool IsNullToken(std::string_view cell,
                 const std::vector<std::string>& tokens) {
  for (const auto& t : tokens) {
    if (EqualsIgnoreCase(cell, t)) return true;
  }
  return false;
}

bool ParseBoolToken(std::string_view cell, bool* out) {
  if (EqualsIgnoreCase(cell, "true")) {
    *out = true;
    return true;
  }
  if (EqualsIgnoreCase(cell, "false")) {
    *out = false;
    return true;
  }
  return false;
}

constexpr size_t kNoRow = static_cast<size_t>(-1);

// One cell after the parse pass: its unescaped text and, for a numeric or
// bool cell, the value its classifying parse produced.
struct Cell {
  enum Kind : uint8_t { kNull, kInt, kDouble, kBool, kText };
  std::string_view text;
  Kind kind = kText;
  union {
    int64_t i;
    double d;
    bool b;
  };
};

// One column's slice of a morsel: its cells in row order, the inference
// flags over them, and its first cell that breaks a declared type.
struct ColumnScan {
  std::vector<Cell> cells;
  bool any_value = false;
  bool all_int = true;
  bool all_num = true;
  bool all_bool = true;
  size_t first_bad = kNoRow;  ///< morsel-local row; declared columns only

  // `declared` is the column's declared type, or kNull to infer one.
  void Add(std::string_view s, DataType declared,
           const std::vector<std::string>& null_tokens) {
    Cell& cell = cells.emplace_back();
    cell.text = s;
    if (IsNullToken(s, null_tokens)) {
      cell.kind = Cell::kNull;
      return;
    }
    if (declared != DataType::kNull) {
      // ParseInt64 rejects out-of-range literals, so an int64 overflow
      // is an error here rather than a silent wrap or widen.
      bool ok = true;
      if (declared == DataType::kInt64) {
        cell.kind = Cell::kInt;
        ok = ParseInt64(s, &cell.i);
      } else if (declared == DataType::kDouble) {
        cell.kind = Cell::kDouble;
        ok = ParseDouble(s, &cell.d);
      } else if (declared == DataType::kBool) {
        cell.kind = Cell::kBool;
        ok = ParseBoolToken(s, &cell.b);
      }
      if (!ok && first_bad == kNoRow) first_bad = cells.size() - 1;
      return;
    }
    // Each parse runs only while its type is still possible for the
    // column. Every integer literal also parses as a double, and no
    // number is a bool token, so one successful parse settles all three
    // flags; a column no type fits any more costs only the null test.
    any_value = true;
    if (all_int && ParseInt64(s, &cell.i)) {
      cell.kind = Cell::kInt;
      all_bool = false;
      return;
    }
    all_int = false;
    if (all_num && ParseDouble(s, &cell.d)) {
      cell.kind = Cell::kDouble;
      all_bool = false;
      return;
    }
    all_num = false;
    if (all_bool && ParseBoolToken(s, &cell.b)) {
      cell.kind = Cell::kBool;
      return;
    }
    all_bool = false;
  }
};

// A run of whole records, text[begin, end), parsed independently of every
// other morsel.
struct Morsel {
  size_t begin = 0;
  size_t end = 0;
  size_t rows = 0;
  std::vector<ColumnScan> columns;
  std::deque<std::string> owned;  ///< unescaped fields the cells view
  Status error;                   ///< first structural error, if any
};

// Cuts text[pos, end of input) into morsels of about kCsvMorselBytes.
// A cut falls only after a '\n' outside quotes. Every '"' flips
// SplitRecord's in-quotes state (an escaped "" flips it twice), so the
// quote count's parity from a record start is that state exactly, and
// each cut is a record start of the serial parse.
std::vector<Morsel> CutMorsels(std::string_view text, size_t pos,
                               char delim) {
  std::vector<Morsel> morsels;
  while (pos < text.size()) {
    Morsel& m = morsels.emplace_back();
    m.begin = pos;
    m.end = text.size();
    // With '\n' as the delimiter a record never ends at a newline.
    if (delim != '\n' && text.size() - pos > kCsvMorselBytes) {
      size_t i = pos + kCsvMorselBytes;
      bool in_quotes =
          std::count(text.begin() + pos, text.begin() + i, '"') % 2 != 0;
      for (; i < text.size(); ++i) {
        if (text[i] == '"') {
          in_quotes = !in_quotes;
        } else if (text[i] == '\n' && !in_quotes) {
          m.end = i + 1;
          break;
        }
      }
    }
    pos = m.end;
  }
  return morsels;
}

// Parse pass over one morsel: splits its records, checks their field
// counts, and classifies every cell once. Stops at the first structural
// error; the merge reports the earliest one in file order.
void ParseMorsel(std::string_view text, char delim,
                 const std::vector<DataType>& declared,
                 const std::vector<std::string>& null_tokens, Morsel* m) {
  const size_t ncols = declared.size();
  m->columns.resize(ncols);
  std::vector<std::string_view> fields;
  size_t pos = m->begin;
  while (pos < m->end) {
    const size_t before = pos;
    if (!SplitRecord(text, &pos, delim, &fields, &m->owned)) {
      m->error = Status::InvalidArgument(
          "unterminated quoted field in CSV record at byte " +
          std::to_string(before));
      return;
    }
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (fields.size() != ncols) {
      m->error = Status::InvalidArgument(
          "CSV record at byte " + std::to_string(before) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(ncols));
      return;
    }
    for (size_t c = 0; c < ncols; ++c) {
      m->columns[c].Add(fields[c], declared[c], null_tokens);
    }
    ++m->rows;
  }
}

// One numeric or bool output column's storage, filled in place: morsel k
// writes rows [row_base[k], row_base[k] + rows), so concatenation in
// morsel order is free. Only the payload run of the column's type is used.
struct ColumnOut {
  std::vector<uint8_t> valid;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;

  ColumnOut(DataType type, size_t n) : valid(n, 0) {
    switch (type) {
      case DataType::kInt64:
        ints.resize(n);
        break;
      case DataType::kDouble:
        doubles.resize(n);
        break;
      case DataType::kBool:
        bools.resize(n);
        break;
      default:
        break;
    }
  }

  void Fill(DataType type, const std::vector<Cell>& cells, size_t base) {
    for (size_t r = 0; r < cells.size(); ++r) {
      const Cell& cell = cells[r];
      if (cell.kind == Cell::kNull) continue;
      const size_t row = base + r;
      switch (type) {
        case DataType::kInt64:
          ints[row] = cell.i;
          break;
        case DataType::kDouble: {
          // An integer cell of a double column parses again, so its bits
          // are strtod's (e.g. "-0" is -0.0, not the int 0).
          double d = cell.d;
          if (cell.kind == Cell::kInt) ParseDouble(cell.text, &d);
          // A spelling strtod reads as NaN ("-nan", "NaN(7)") is null, like
          // the "nan" token: a valid NaN would code like some real value.
          if (std::isnan(d)) continue;
          doubles[row] = d;
          break;
        }
        case DataType::kBool:
          bools[row] = cell.b ? 1 : 0;
          break;
        default:
          break;
      }
      valid[row] = 1;
    }
  }

  Column Finish(DataType type) && {
    switch (type) {
      case DataType::kInt64:
        return Column::FromInts(std::move(ints), std::move(valid));
      case DataType::kDouble:
        return Column::FromDoubles(std::move(doubles), std::move(valid));
      default:
        return Column::FromBools(std::move(bools), std::move(valid));
    }
  }
};

// Reads the whole file into one buffer: one read for a regular file (the
// second read only confirms end of file), growing for pipes.
Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st {};
  const size_t hint =
      ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) ? st.st_size : 0;
  std::string text(hint + 1, '\0');
  size_t len = 0;
  for (;;) {
    if (len == text.size()) text.resize(2 * text.size());
    const ssize_t got = ::read(fd, text.data() + len, text.size() - len);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("cannot read " + path + ": " +
                             std::strerror(err));
    }
    if (got == 0) break;
    len += static_cast<size_t>(got);
  }
  ::close(fd);
  text.resize(len);
  return text;
}

}  // namespace

Result<Table> ReadCsvString(const std::string& input,
                            const CsvReadOptions& options) {
  if (!options.has_header) {
    return Status::NotImplemented("CSV without header is not supported");
  }
  const std::string_view text = input;
  const char delim = options.delimiter;
  // One leading UTF-8 byte-order mark is an encoding signature, not part
  // of the first column's name. Byte offsets still count from the input.
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  size_t pos = StartsWith(text, kUtf8Bom) ? kUtf8Bom.size() : 0;
  if (pos == text.size()) return Status::InvalidArgument("empty CSV input");

  std::vector<std::string> header;
  std::vector<Morsel> morsels;
  {
    MESA_SPAN("scan");
    std::vector<std::string_view> fields;
    std::deque<std::string> owned;
    if (!SplitRecord(text, &pos, delim, &fields, &owned)) {
      return Status::InvalidArgument(
          "unterminated quoted field in CSV header");
    }
    header.assign(fields.begin(), fields.end());
    morsels = CutMorsels(text, pos, delim);
  }
  const size_t ncols = header.size();

  {
    MESA_SPAN("parse");
    // Supported declared types parse strictly; kNull means infer.
    std::vector<DataType> declared(ncols, DataType::kNull);
    for (size_t c = 0; c < ncols; ++c) {
      auto it = options.declared_types.find(header[c]);
      if (it != options.declared_types.end() &&
          it->second != DataType::kNull) {
        declared[c] = it->second;
      }
    }
    ParallelFor(0, morsels.size(), [&](size_t k) {
      ParseMorsel(text, delim, declared, options.null_tokens, &morsels[k]);
    });
  }

  MESA_SPAN("assemble");
  // Errors in the serial reader's order: the first structural error in
  // file order, then a bad declaration, then the lowest declared column
  // with a cell that breaks its type, at that cell's first data row.
  for (const Morsel& m : morsels) {
    if (!m.error.ok()) return m.error;
  }

  // Declared columns must exist and use a storable type: a typo'd name
  // would silently disable the strict check the caller asked for.
  for (const auto& [name, type] : options.declared_types) {
    bool found = false;
    for (const auto& h : header) found = found || h == name;
    if (!found) {
      return Status::InvalidArgument("declared type for unknown CSV column '" +
                                     name + "'");
    }
    if (type != DataType::kInt64 && type != DataType::kDouble &&
        type != DataType::kBool && type != DataType::kString) {
      return Status::InvalidArgument("column '" + name +
                                     "' declared with unsupported type " +
                                     DataTypeName(type));
    }
  }

  std::vector<size_t> row_base(morsels.size());
  size_t nrows = 0;
  for (size_t k = 0; k < morsels.size(); ++k) {
    row_base[k] = nrows;
    nrows += morsels[k].rows;
  }

  // Per column: declared type (strict) or inference (lenient).
  Schema schema;
  std::vector<DataType> types(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    auto declared = options.declared_types.find(header[c]);
    if (declared != options.declared_types.end()) {
      const DataType t = declared->second;
      for (size_t k = 0; k < morsels.size(); ++k) {
        const ColumnScan& scan = morsels[k].columns[c];
        if (scan.first_bad == kNoRow) continue;
        return Status::InvalidArgument(
            "cell '" + std::string(scan.cells[scan.first_bad].text) +
            "' in column '" + header[c] + "' (data row " +
            std::to_string(row_base[k] + scan.first_bad + 1) +
            ") does not parse as declared type " + DataTypeName(t));
      }
      types[c] = t;
      MESA_RETURN_IF_ERROR(schema.AddField({header[c], t}));
      continue;
    }
    bool all_int = true, all_num = true, all_bool = true, any_value = false;
    for (const Morsel& m : morsels) {
      const ColumnScan& scan = m.columns[c];
      all_int = all_int && scan.all_int;
      all_num = all_num && scan.all_num;
      all_bool = all_bool && scan.all_bool;
      any_value = any_value || scan.any_value;
    }
    DataType t;
    if (!any_value) {
      t = DataType::kString;  // all-null column: degrade to string
    } else if (all_int) {
      t = DataType::kInt64;
    } else if (all_num) {
      t = DataType::kDouble;
    } else if (all_bool) {
      t = DataType::kBool;
    } else {
      t = DataType::kString;
    }
    types[c] = t;
    MESA_RETURN_IF_ERROR(schema.AddField({header[c], t}));
  }

  // Numeric and bool columns fill each morsel's row range in parallel.
  // String columns intern their cells in row order, one column per task,
  // so each dictionary comes out in first-appearance order with no merge.
  std::vector<ColumnOut> out;
  out.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    out.emplace_back(types[c], types[c] == DataType::kString ? 0 : nrows);
  }
  ParallelFor(0, morsels.size(), [&](size_t k) {
    for (size_t c = 0; c < ncols; ++c) {
      if (types[c] == DataType::kString) continue;
      out[c].Fill(types[c], morsels[k].columns[c].cells, row_base[k]);
    }
  });
  std::vector<Column> columns;
  columns.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) columns.emplace_back(types[c]);
  ParallelFor(0, ncols, [&](size_t c) {
    if (types[c] != DataType::kString) {
      columns[c] = std::move(out[c]).Finish(types[c]);
      return;
    }
    for (const Morsel& m : morsels) {
      for (const Cell& cell : m.columns[c].cells) {
        if (cell.kind == Cell::kNull) {
          columns[c].AppendNull();
        } else {
          columns[c].AppendString(cell.text);
        }
      }
    }
  });
  return Table::Make(std::move(schema), std::move(columns));
}

Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options) {
  std::string text;
  {
    MESA_SPAN("read");
    MESA_ASSIGN_OR_RETURN(text, ReadWholeFile(path));
  }
  return ReadCsvString(text, options);
}

namespace {

std::string EscapeCell(const std::string& cell, char delim) {
  bool needs_quotes = cell.find(delim) != std::string::npos ||
                      cell.find('"') != std::string::npos ||
                      cell.find('\n') != std::string::npos ||
                      cell.find('\r') != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string WriteCsvString(const Table& table, char delimiter) {
  std::string out;
  const auto& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out += delimiter;
    out += EscapeCell(schema.field(c).name, delimiter);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delimiter;
      const Column& col = table.column(c);
      if (col.IsNull(r)) continue;  // empty cell
      out += EscapeCell(col.GetValue(r).ToString(), delimiter);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteCsvString(table, delimiter);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace mesa
