#include "table/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/parallel.h"

namespace mesa {

Result<Table> Table::Make(Schema schema, std::vector<Column> columns) {
  if (schema.num_fields() != columns.size()) {
    return Status::InvalidArgument("schema/column count mismatch");
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].size() != rows) {
      return Status::InvalidArgument("column length mismatch at " +
                                     schema.field(i).name);
    }
    if (columns[i].type() != schema.field(i).type) {
      return Status::InvalidArgument("column type mismatch at " +
                                     schema.field(i).name);
    }
  }
  Table t;
  t.schema_ = std::move(schema);
  t.columns_ = std::move(columns);
  return t;
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  auto idx = schema_.IndexOf(name);
  if (!idx.has_value()) return Status::NotFound("no such column: " + name);
  return &columns_[*idx];
}

Result<Column*> Table::MutableColumnByName(const std::string& name) {
  auto idx = schema_.IndexOf(name);
  if (!idx.has_value()) return Status::NotFound("no such column: " + name);
  return &columns_[*idx];
}

Result<Value> Table::GetCell(size_t row, const std::string& column) const {
  MESA_ASSIGN_OR_RETURN(const Column* col, ColumnByName(column));
  if (row >= col->size()) return Status::OutOfRange("row out of range");
  return col->GetValue(row);
}

Status Table::AddColumn(Field field, Column column) {
  if (!columns_.empty() && column.size() != num_rows()) {
    return Status::InvalidArgument("column length mismatch for " + field.name);
  }
  if (column.type() != field.type) {
    return Status::InvalidArgument("column type mismatch for " + field.name);
  }
  MESA_RETURN_IF_ERROR(schema_.AddField(std::move(field)));
  columns_.push_back(std::move(column));
  return Status::OK();
}

Result<Table> Table::Select(const std::vector<std::string>& names) const {
  Schema schema;
  std::vector<Column> cols;
  for (const auto& name : names) {
    auto idx = schema_.IndexOf(name);
    if (!idx.has_value()) return Status::NotFound("no such column: " + name);
    MESA_RETURN_IF_ERROR(schema.AddField(schema_.field(*idx)));
    cols.push_back(columns_[*idx]);
  }
  return Table::Make(std::move(schema), std::move(cols));
}

Table Table::TakeRows(const std::vector<size_t>& rows) const {
  Table out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  // Column gathers are independent, so large takes run one column per
  // task; each column's output is identical to its serial Take.
  if (columns_.size() > 1 && rows.size() >= 4096) {
    for (const auto& col : columns_) out.columns_.emplace_back(col.type());
    ParallelFor(0, columns_.size(),
                [&](size_t c) { out.columns_[c] = columns_[c].Take(rows); });
  } else {
    for (const auto& col : columns_) out.columns_.push_back(col.Take(rows));
  }
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream out;
  out << schema_.ToString() << "\n";
  size_t shown = std::min(max_rows, num_rows());
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) out << " | ";
      out << columns_[c].GetValue(r).ToString();
    }
    out << "\n";
  }
  if (shown < num_rows()) {
    out << "... (" << num_rows() - shown << " more rows)\n";
  }
  return out.str();
}

}  // namespace mesa
