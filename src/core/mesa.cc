#include "core/mesa.h"

#include "common/cancel.h"
#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace mesa {

namespace {

// The library's no-exceptions-across-the-public-API contract meets
// cooperative cancellation here: pipeline checkpoints unwind with
// CancelledError, and every public Mesa entry point converts it back to
// its Status (kCancelled / kDeadlineExceeded) before returning. The
// unwind is state-safe: caches only ever insert completed values
// computed outside their locks, and Preprocess leaves preprocessed_
// false so a later request retries from scratch.
template <typename Fn>
auto CatchCancel(const Fn& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const CancelledError& e) {
    return e.status();
  }
}

}  // namespace

std::string MesaReport::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "I(O;T|C) = %.3f; explanation %s brings it to %.3f",
                base_cmi, explanation.ToString().c_str(), final_cmi);
  return buf;
}

Mesa::Mesa(Table base_table, const TripleStore* kg,
           std::vector<std::string> extraction_columns, MesaOptions options)
    : base_table_(std::move(base_table)),
      kg_(kg),
      extraction_columns_(std::move(extraction_columns)),
      options_(std::move(options)) {
  if (kg != nullptr) WireEndpoint(std::make_shared<LocalEndpoint>(kg));
}

Mesa::Mesa(Table base_table, std::shared_ptr<KgEndpoint> endpoint,
           std::vector<std::string> extraction_columns, MesaOptions options)
    : base_table_(std::move(base_table)),
      kg_(endpoint == nullptr ? nullptr : endpoint->local_store()),
      extraction_columns_(std::move(extraction_columns)),
      options_(std::move(options)) {
  if (endpoint != nullptr) WireEndpoint(std::move(endpoint));
}

void Mesa::WireEndpoint(std::shared_ptr<KgEndpoint> endpoint) {
  // Fault layer: an explicit plan wins over MESA_FAULT_PLAN. A malformed
  // plan is remembered and surfaced from Preprocess — silently ignoring
  // it would fake a reliable endpoint.
  Result<FaultPlan> plan = options_.fault_plan.empty()
                               ? FaultPlan::FromEnv()
                               : FaultPlan::Parse(options_.fault_plan);
  if (!plan.ok()) {
    setup_status_ = plan.status();
    return;
  }
  endpoint_ = plan->has_faults()
                  ? std::make_shared<FaultInjectingEndpoint>(
                        std::move(endpoint), std::move(*plan))
                  : std::move(endpoint);
  kg_client_ =
      std::make_unique<ResilientKgClient>(endpoint_, options_.kg_client);
}

Status Mesa::Preprocess() {
  // Serialize concurrent first queries: the winner preprocesses, the rest
  // block on the mutex and then see preprocessed_ == true (the mutex
  // hand-off publishes every write the winner made). A failed attempt
  // leaves preprocessed_ false so a later call can retry, matching the
  // single-threaded behaviour.
  std::lock_guard<std::mutex> lock(*preprocess_mu_);
  if (preprocessed_) return Status::OK();
  Status status = CatchCancel([&] { return PreprocessLocked(); });
  if (status.ok()) preprocessed_ = true;
  return status;
}

Status Mesa::PreprocessLocked() {
  MESA_RETURN_IF_ERROR(setup_status_);
  MESA_SPAN("preprocess");

  std::vector<Table> entity_tables;
  if (kg_client_ != nullptr && !extraction_columns_.empty()) {
    MESA_ASSIGN_OR_RETURN(
        AugmentResult aug,
        AugmentTableFromKg(base_table_, extraction_columns_,
                           kg_client_.get(), options_.extraction));
    augmented_ = std::move(aug.table);
    kg_columns_ = std::move(aug.extracted_columns);
    extraction_stats_ = aug.stats;
    entity_tables = std::move(aug.entity_tables);
  } else {
    augmented_ = base_table_;
  }

  // Offline pruning is query-independent. Base-table attributes are pruned
  // at row level; extracted attributes at *entity* level (wikiID is unique
  // per country, not per developer — the high-entropy filter must see the
  // entity table to catch it, exactly as the paper prunes the extracted
  // relation E).
  if (options_.enable_offline_pruning) {
    std::vector<std::string> base_names;
    for (const auto& f : base_table_.schema().fields()) {
      base_names.push_back(f.name);
    }
    MESA_ASSIGN_OR_RETURN(
        offline_result_,
        OfflinePrune(augmented_, base_names, options_.offline_prune));
    for (const Table& et : entity_tables) {
      std::vector<std::string> attr_names;
      for (size_t c = 1; c < et.num_columns(); ++c) {
        attr_names.push_back(et.schema().field(c).name);
      }
      MESA_ASSIGN_OR_RETURN(PruneResult pr,
                            OfflinePrune(et, attr_names,
                                         options_.offline_prune));
      for (auto& name : pr.kept) {
        offline_result_.kept.push_back(std::move(name));
      }
      for (auto& p : pr.pruned) offline_result_.pruned.push_back(std::move(p));
    }
    candidate_pool_ = offline_result_.kept;
  } else {
    for (const auto& f : augmented_.schema().fields()) {
      candidate_pool_.push_back(f.name);
    }
  }
  return Status::OK();
}

Result<const Table*> Mesa::augmented_table() {
  MESA_RETURN_IF_ERROR(Preprocess());
  return &augmented_;
}

Result<Mesa::PreparedQuery> Mesa::PrepareQuery(const QuerySpec& query) {
  return CatchCancel([&]() -> Result<PreparedQuery> {
  MESA_RETURN_IF_ERROR(Preprocess());
  MESA_SPAN("prepare_query");
  PreparedQuery out;
  MESA_ASSIGN_OR_RETURN(
      QueryAnalysis analysis,
      QueryAnalysis::Prepare(augmented_, query, candidate_pool_, kg_columns_,
                             options_.prepare));
  out.analysis = std::make_shared<QueryAnalysis>(std::move(analysis));
  if (options_.enable_online_pruning) {
    OnlinePruneResult pr = OnlinePrune(*out.analysis, options_.online_prune);
    out.candidate_indices = std::move(pr.kept_indices);
    out.pruned_online = std::move(pr.pruned);
  } else {
    for (size_t i = 0; i < out.analysis->attributes().size(); ++i) {
      out.candidate_indices.push_back(i);
    }
  }
  return out;
  });
}

Result<MesaReport> Mesa::Explain(const QuerySpec& query) {
  return CatchCancel([&]() -> Result<MesaReport> {
  MESA_SPAN("explain");
  MESA_COUNT("mesa/explains");
  MESA_ASSIGN_OR_RETURN(PreparedQuery pq, PrepareQuery(query));
  MesaReport report;
  report.query = query;
  report.candidates_total = augmented_.num_columns();
  report.candidates_after_offline = candidate_pool_.size();
  report.candidates_after_online = pq.candidate_indices.size();
  report.pruned_online = pq.pruned_online;
  report.extraction = extraction_stats_;

  report.explanation =
      RunMcimr(*pq.analysis, pq.candidate_indices, options_.mcimr);
  report.responsibilities = ComputeResponsibilities(
      *pq.analysis, report.explanation.attribute_indices);
  report.base_cmi = report.explanation.base_cmi;
  report.final_cmi = report.explanation.final_cmi;
  return report;
  });
}

Result<MesaReport> Mesa::ExplainSql(const std::string& sql) {
  MESA_ASSIGN_OR_RETURN(QuerySpec query, ParseQuery(sql));
  return Explain(query);
}

Result<std::vector<Mesa::LinkRelevance>> Mesa::RankLinks(
    const QuerySpec& query) {
  return CatchCancel([&]() -> Result<std::vector<LinkRelevance>> {
  MESA_RETURN_IF_ERROR(Preprocess());
  std::vector<LinkRelevance> out;
  if (kg_ == nullptr) return out;

  // Entity-valued predicates are the followable links.
  std::set<std::string> links;
  for (EntityId id = 0; id < kg_->num_entities(); ++id) {
    for (const Triple* t : kg_->PropertiesOf(id)) {
      if (t->object.is_entity()) {
        links.insert(kg_->predicate_name(t->predicate));
      }
    }
  }
  if (links.empty()) return out;

  MESA_ASSIGN_OR_RETURN(PreparedQuery pq, PrepareQuery(query));
  std::map<std::string, LinkRelevance> by_link;
  for (size_t i = 0; i < pq.analysis->attributes().size(); ++i) {
    const PreparedAttribute& attr = pq.analysis->attributes()[i];
    if (!attr.from_kg) continue;
    // Strip a "<column>." collision prefix if present.
    std::string name = attr.name;
    size_t dot = name.find('.');
    if (dot != std::string::npos) name = name.substr(dot + 1);
    for (const std::string& link : links) {
      if (name.rfind(link + "_", 0) != 0) continue;
      double cmi = pq.analysis->CmiGivenAttribute(i);
      auto [it, inserted] = by_link.emplace(link, LinkRelevance{});
      LinkRelevance& r = it->second;
      if (inserted) {
        r.link = link;
        r.best_cmi = cmi;
        r.best_attribute = attr.name;
      } else if (cmi < r.best_cmi) {
        r.best_cmi = cmi;
        r.best_attribute = attr.name;
      }
      ++r.attributes;
      break;
    }
  }
  for (auto& [link, r] : by_link) {
    (void)link;
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const LinkRelevance& a, const LinkRelevance& b) {
              return a.best_cmi < b.best_cmi;
            });
  return out;
  });
}

Result<std::vector<UnexplainedSubgroup>> Mesa::FindSubgroups(
    const QuerySpec& query, const std::vector<std::string>& explanation,
    SubgroupOptions options) {
  return CatchCancel([&]() -> Result<std::vector<UnexplainedSubgroup>> {
  MESA_RETURN_IF_ERROR(Preprocess());
  if (options.refinement_attributes.empty()) {
    // Default: categorical columns of the *base* table (the paper refines
    // on dataset attributes like Continent and Currency).
    for (const auto& f : base_table_.schema().fields()) {
      if (f.type == DataType::kString && !query.IsExposure(f.name) &&
          f.name != query.outcome) {
        options.refinement_attributes.push_back(f.name);
      }
    }
  }
  MESA_SPAN("subgroups");
  return FindUnexplainedSubgroups(augmented_, query, explanation, options);
  });
}

}  // namespace mesa
