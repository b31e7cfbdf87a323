#include "query/query_spec.h"

#include <algorithm>

namespace mesa {

std::vector<std::string> QuerySpec::AllExposures() const {
  std::vector<std::string> out;
  out.reserve(1 + secondary_exposures.size());
  out.push_back(exposure);
  for (const auto& e : secondary_exposures) out.push_back(e);
  return out;
}

bool QuerySpec::IsExposure(const std::string& name) const {
  if (name == exposure) return true;
  return std::find(secondary_exposures.begin(), secondary_exposures.end(),
                   name) != secondary_exposures.end();
}

std::string QuerySpec::ToSql() const {
  std::string group_list = exposure;
  for (const auto& e : secondary_exposures) group_list += ", " + e;
  std::string sql = "SELECT " + group_list + ", " +
                    AggregateFunctionName(aggregate) + "(" + outcome +
                    ") FROM " + table_name;
  if (!context.empty()) sql += " WHERE " + context.ToString();
  sql += " GROUP BY " + group_list;
  return sql;
}

Status QuerySpec::Validate(const Table& table) const {
  std::vector<std::string> exposures = AllExposures();
  for (size_t i = 0; i < exposures.size(); ++i) {
    if (exposures[i] == outcome) {
      return Status::InvalidArgument("exposure and outcome must differ");
    }
    if (!table.schema().Contains(exposures[i])) {
      return Status::NotFound("exposure column not found: " + exposures[i]);
    }
    for (size_t j = i + 1; j < exposures.size(); ++j) {
      if (exposures[i] == exposures[j]) {
        return Status::InvalidArgument("duplicate grouping attribute: " +
                                       exposures[i]);
      }
    }
  }
  MESA_ASSIGN_OR_RETURN(const Column* ocol, table.ColumnByName(outcome));
  if (ocol->type() == DataType::kString) {
    return Status::InvalidArgument("outcome column must be numeric: " +
                                   outcome);
  }
  for (const auto& cond : context.conditions()) {
    if (!table.schema().Contains(cond.column)) {
      return Status::NotFound("context column not found: " + cond.column);
    }
  }
  return Status::OK();
}

}  // namespace mesa
