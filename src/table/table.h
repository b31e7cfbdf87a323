#ifndef MESA_TABLE_TABLE_H_
#define MESA_TABLE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/column.h"
#include "table/schema.h"

namespace mesa {

/// An immutable-ish in-memory columnar table: a Schema plus one Column per
/// field, all of equal length. The query layer and all algorithms operate on
/// Tables. Mutation is limited to whole-column replacement / addition and
/// cell updates used by the missing-data machinery.
class Table {
 public:
  Table() = default;

  /// Builds a table from parallel fields/columns. All columns must have the
  /// same length.
  static Result<Table> Make(Schema schema, std::vector<Column> columns);

  size_t num_rows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t num_columns() const { return columns_.size(); }
  const Schema& schema() const { return schema_; }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }

  /// Column lookup by field name.
  Result<const Column*> ColumnByName(const std::string& name) const;
  Result<Column*> MutableColumnByName(const std::string& name);

  /// Cell access by (row, column name); mostly for tests and display.
  Result<Value> GetCell(size_t row, const std::string& column) const;

  /// Appends a column; length must equal num_rows() (or the table must be
  /// empty of columns).
  Status AddColumn(Field field, Column column);

  /// New table with only the named columns, in the given order.
  Result<Table> Select(const std::vector<std::string>& names) const;

  /// New table with the given rows (indices may repeat / reorder).
  Table TakeRows(const std::vector<size_t>& rows) const;

  /// Pretty-prints up to `max_rows` rows (for examples / debugging).
  std::string ToString(size_t max_rows = 10) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace mesa

#endif  // MESA_TABLE_TABLE_H_
