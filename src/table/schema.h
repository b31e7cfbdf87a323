#ifndef MESA_TABLE_SCHEMA_H_
#define MESA_TABLE_SCHEMA_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace mesa {

/// A named, typed column descriptor.
struct Field {
  std::string name;
  DataType type = DataType::kNull;

  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

/// Ordered collection of fields with O(1) lookup by name. Field names are
/// unique within a schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  /// Appends a field; fails if the name already exists.
  Status AddField(Field field);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the named field, or nullopt.
  std::optional<size_t> IndexOf(const std::string& name) const;

  /// True if a field with this name exists.
  bool Contains(const std::string& name) const;

  /// All field names, in schema order.
  std::vector<std::string> names() const;

  /// "name:type, name:type, ..." rendering.
  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace mesa

#endif  // MESA_TABLE_SCHEMA_H_
