#include "kg/triple_store.h"

#include <algorithm>

#include "common/string_util.h"

namespace mesa {

Result<EntityId> TripleStore::AddEntity(const std::string& label,
                                        const std::string& type) {
  if (by_label_.count(label) > 0) {
    return Status::AlreadyExists("entity label exists: " + label);
  }
  EntityId id = static_cast<EntityId>(entities_.size());
  entities_.push_back({label, type});
  by_label_.emplace(label, id);
  by_normalized_[NormalizeEntityName(label)].push_back(id);
  return id;
}

Status TripleStore::AddAlias(EntityId entity, const std::string& alias) {
  if (entity >= entities_.size()) {
    return Status::OutOfRange("bad entity id");
  }
  by_alias_[alias].push_back(entity);
  aliases_of_[entity].push_back(alias);
  auto& norm = by_normalized_[NormalizeEntityName(alias)];
  if (std::find(norm.begin(), norm.end(), entity) == norm.end()) {
    norm.push_back(entity);
  }
  return Status::OK();
}

PredicateId TripleStore::InternPredicate(const std::string& name) {
  auto it = predicate_ids_.find(name);
  if (it != predicate_ids_.end()) return it->second;
  PredicateId id = static_cast<PredicateId>(predicate_names_.size());
  predicate_names_.push_back(name);
  predicate_ids_.emplace(name, id);
  return id;
}

Status TripleStore::AddLiteral(EntityId subject, const std::string& predicate,
                               Value v) {
  if (subject >= entities_.size()) return Status::OutOfRange("bad subject");
  PredicateId pid = InternPredicate(predicate);
  by_subject_[subject].push_back(triples_.size());
  triples_.push_back({subject, pid, KgObject::Literal(std::move(v))});
  return Status::OK();
}

Status TripleStore::AddEdge(EntityId subject, const std::string& predicate,
                            EntityId object) {
  if (subject >= entities_.size() || object >= entities_.size()) {
    return Status::OutOfRange("bad entity id");
  }
  PredicateId pid = InternPredicate(predicate);
  by_subject_[subject].push_back(triples_.size());
  triples_.push_back({subject, pid, KgObject::Entity(object)});
  return Status::OK();
}

std::vector<const Triple*> TripleStore::PropertiesOf(EntityId entity) const {
  std::vector<const Triple*> out;
  auto it = by_subject_.find(entity);
  if (it == by_subject_.end()) return out;
  out.reserve(it->second.size());
  for (size_t idx : it->second) out.push_back(&triples_[idx]);
  return out;
}

std::optional<EntityId> TripleStore::FindByLabel(
    const std::string& label) const {
  auto it = by_label_.find(label);
  if (it == by_label_.end()) return std::nullopt;
  return it->second;
}

std::vector<EntityId> TripleStore::FindByAlias(const std::string& alias) const {
  std::vector<EntityId> out;
  auto lbl = by_label_.find(alias);
  if (lbl != by_label_.end()) out.push_back(lbl->second);
  auto it = by_alias_.find(alias);
  if (it != by_alias_.end()) {
    for (EntityId id : it->second) {
      if (std::find(out.begin(), out.end(), id) == out.end()) {
        out.push_back(id);
      }
    }
  }
  return out;
}

std::vector<std::string> TripleStore::AliasesOf(EntityId entity) const {
  auto it = aliases_of_.find(entity);
  if (it == aliases_of_.end()) return {};
  return it->second;
}

std::vector<EntityId> TripleStore::FindByNormalized(
    const std::string& text) const {
  auto it = by_normalized_.find(NormalizeEntityName(text));
  if (it == by_normalized_.end()) return {};
  return it->second;
}

std::vector<const Triple*> TripleStore::Match(
    const TriplePattern& pattern) const {
  std::vector<const Triple*> out;
  std::optional<PredicateId> pid;
  if (pattern.predicate.has_value()) {
    auto it = predicate_ids_.find(*pattern.predicate);
    if (it == predicate_ids_.end()) return out;  // unknown predicate
    pid = it->second;
  }
  auto matches = [&](const Triple& t) {
    if (pattern.subject.has_value() && t.subject != *pattern.subject) {
      return false;
    }
    if (pid.has_value() && t.predicate != *pid) return false;
    if (pattern.literal.has_value()) {
      if (t.object.is_entity() || !(t.object.literal == *pattern.literal)) {
        return false;
      }
    }
    if (pattern.object_entity.has_value()) {
      if (!t.object.is_entity() || t.object.entity != *pattern.object_entity) {
        return false;
      }
    }
    return true;
  };
  if (pattern.subject.has_value()) {
    // Use the subject index.
    auto it = by_subject_.find(*pattern.subject);
    if (it == by_subject_.end()) return out;
    for (size_t idx : it->second) {
      if (matches(triples_[idx])) out.push_back(&triples_[idx]);
    }
    return out;
  }
  for (const Triple& t : triples_) {
    if (matches(t)) out.push_back(&t);
  }
  return out;
}

}  // namespace mesa
