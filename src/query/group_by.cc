#include "query/group_by.h"

#include <unordered_map>

namespace mesa {

Result<std::vector<int32_t>> EncodeGroups(const Table& table,
                                          const std::string& column,
                                          std::vector<Value>* group_values) {
  MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column));
  std::vector<int32_t> codes(table.num_rows(), -1);
  if (group_values != nullptr) group_values->clear();
  if (col->type() == DataType::kString) {
    // Dictionary entries never repeat, so a dictionary code names one
    // value: number codes in order of first appearance.
    const std::vector<std::string>& dict = col->dictionary();
    const uint32_t* dict_codes = col->code_data();
    std::vector<int32_t> ids(dict.size(), -1);
    int32_t next = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (col->IsNull(r)) continue;
      int32_t& id = ids[dict_codes[r]];
      if (id < 0) {
        id = next++;
        if (group_values != nullptr) {
          group_values->push_back(Value::String(dict[dict_codes[r]]));
        }
      }
      codes[r] = id;
    }
    return codes;
  }
  std::unordered_map<Value, int32_t, ValueHash> ids;
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
