#include "query/group_by.h"

#include <unordered_map>

namespace mesa {

Result<std::vector<int32_t>> EncodeGroups(const Table& table,
                                          const std::string& column,
                                          std::vector<Value>* group_values) {
  MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column));
  std::unordered_map<Value, int32_t, ValueHash> ids;
  std::vector<int32_t> codes(table.num_rows(), -1);
  if (group_values != nullptr) group_values->clear();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (col->IsNull(r)) continue;
    Value v = col->GetValue(r);
    auto [it, inserted] = ids.emplace(v, static_cast<int32_t>(ids.size()));
    if (inserted && group_values != nullptr) group_values->push_back(v);
    codes[r] = it->second;
  }
  return codes;
}

}  // namespace mesa
