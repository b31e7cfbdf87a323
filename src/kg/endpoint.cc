#include "kg/endpoint.h"

namespace mesa {

LocalEndpoint::LocalEndpoint(const TripleStore* store) : store_(store) {}

Result<LinkResult> LocalEndpoint::Resolve(const std::string& text,
                                          const EntityLinkerOptions& options) {
  EntityLinker linker(store_, options);
  return linker.Link(text);
}

Result<std::vector<KgProperty>> LocalEndpoint::Properties(EntityId id) {
  if (id >= store_->num_entities()) {
    return Status::NotFound("no entity with id " + std::to_string(id));
  }
  auto triples = store_->PropertiesOf(id);
  std::vector<KgProperty> out;
  out.reserve(triples.size());
  for (const Triple* t : triples) {
    KgProperty p;
    p.predicate = store_->predicate_name(t->predicate);
    if (t->object.is_entity()) {
      p.is_entity = true;
      p.entity = t->object.entity;
      p.entity_label = store_->entity(t->object.entity).label;
    } else {
      p.literal = t->object.literal;
    }
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace mesa
