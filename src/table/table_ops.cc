#include "table/table_ops.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace mesa {

namespace {

// Null-aware three-way comparison: nulls order before all values.
int CompareCells(const Column& col, size_t a, size_t b) {
  bool na = col.IsNull(a), nb = col.IsNull(b);
  if (na && nb) return 0;
  if (na) return -1;
  if (nb) return 1;
  Value va = col.GetValue(a), vb = col.GetValue(b);
  if (va < vb) return -1;
  if (vb < va) return 1;
  return 0;
}

// Hash of one row over the given columns (for Distinct).
struct RowKey {
  const Table* table;
  const std::vector<size_t>* cols;
  size_t row;
};

struct RowKeyHash {
  size_t operator()(const RowKey& k) const {
    size_t h = 0x9E3779B97F4A7C15ULL;
    for (size_t c : *k.cols) {
      const Column& col = k.table->column(c);
      size_t cell = col.IsNull(k.row) ? 0x517CC1B7ULL
                                      : col.GetValue(k.row).Hash();
      h ^= cell + 0x9E3779B9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct RowKeyEq {
  bool operator()(const RowKey& a, const RowKey& b) const {
    for (size_t c : *a.cols) {
      const Column& col = a.table->column(c);
      bool na = col.IsNull(a.row), nb = col.IsNull(b.row);
      if (na != nb) return false;
      if (!na && !(col.GetValue(a.row) == col.GetValue(b.row))) return false;
    }
    return true;
  }
};

}  // namespace

Result<Table> SortBy(const Table& table, const std::vector<SortKey>& keys) {
  std::vector<const Column*> cols;
  cols.reserve(keys.size());
  for (const auto& key : keys) {
    MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(key.column));
    cols.push_back(col);
  }
  std::vector<size_t> order(table.num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int c = CompareCells(*cols[k], a, b);
      if (c != 0) return keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return table.TakeRows(order);
}

Result<Table> Distinct(const Table& table,
                       const std::vector<std::string>& columns) {
  std::vector<size_t> col_indices;
  if (columns.empty()) {
    for (size_t c = 0; c < table.num_columns(); ++c) col_indices.push_back(c);
  } else {
    for (const auto& name : columns) {
      auto idx = table.schema().IndexOf(name);
      if (!idx.has_value()) return Status::NotFound("no such column: " + name);
      col_indices.push_back(*idx);
    }
  }
  std::unordered_set<RowKey, RowKeyHash, RowKeyEq> seen;
  std::vector<size_t> keep;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (seen.insert({&table, &col_indices, r}).second) keep.push_back(r);
  }
  return table.TakeRows(keep);
}

Result<Table> Concat(const std::vector<const Table*>& tables) {
  if (tables.empty()) return Status::InvalidArgument("nothing to concat");
  const Schema& schema = tables[0]->schema();
  for (const Table* t : tables) {
    if (!(t->schema() == schema)) {
      return Status::InvalidArgument("schema mismatch in Concat");
    }
  }
  std::vector<Column> columns;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    Column col(schema.field(c).type);
    for (const Table* t : tables) {
      const Column& src = t->column(c);
      for (size_t r = 0; r < src.size(); ++r) {
        if (src.IsNull(r)) {
          col.AppendNull();
        } else {
          MESA_RETURN_IF_ERROR(col.Append(src.GetValue(r)));
        }
      }
    }
    columns.push_back(std::move(col));
  }
  return Table::Make(schema, std::move(columns));
}

std::vector<ColumnProfile> ProfileColumns(const Table& table) {
  std::vector<ColumnProfile> out;
  out.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    ColumnProfile p;
    p.name = table.schema().field(c).name;
    p.type = col.type();
    p.nulls = col.null_count();
    p.distinct = col.DistinctCount();
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace mesa
