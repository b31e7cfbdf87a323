#include "table/schema.h"

#include "common/logging.h"

namespace mesa {

Schema::Schema(std::vector<Field> fields) {
  for (auto& f : fields) {
    Status st = AddField(std::move(f));
    MESA_CHECK(st.ok());
  }
}

Status Schema::AddField(Field field) {
  if (index_.count(field.name) > 0) {
    return Status::AlreadyExists("duplicate field name: " + field.name);
  }
  index_.emplace(field.name, fields_.size());
  fields_.push_back(std::move(field));
  return Status::OK();
}

std::optional<size_t> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool Schema::Contains(const std::string& name) const {
  return index_.count(name) > 0;
}

std::vector<std::string> Schema::names() const {
  std::vector<std::string> out;
  out.reserve(fields_.size());
  for (const auto& f : fields_) out.push_back(f.name);
  return out;
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += DataTypeName(fields_[i].type);
  }
  return out;
}

}  // namespace mesa
