#ifndef MESA_QUERY_GROUP_BY_H_
#define MESA_QUERY_GROUP_BY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "table/table.h"

namespace mesa {

/// Maps every row of `table` to a dense group id in [0, n_groups) according
/// to the value of `column` (nulls get id -1). Used by the information-
/// theoretic estimators. Group ids are assigned in order of first
/// appearance; `group_values` receives the distinct values.
Result<std::vector<int32_t>> EncodeGroups(const Table& table,
                                          const std::string& column,
                                          std::vector<Value>* group_values);

}  // namespace mesa

#endif  // MESA_QUERY_GROUP_BY_H_
