#include "kg/extractor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common/cancel.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "query/join.h"

namespace mesa {

namespace {

// Recursively gathers properties of `entity` into `out` through the
// client, following entity-valued predicates while hops remain. Attribute
// names compose as "leader_age" for hop-2 properties. A Properties call
// that fails for good marks `*any_failure` and the walk keeps whatever
// other branches it can reach — partial extraction beats no extraction.
void GatherProperties(ResilientKgClient* client, EntityId entity,
                      const std::string& prefix, size_t hops_left,
                      std::map<std::string, std::vector<Value>>* out,
                      bool* any_failure) {
  Result<std::vector<KgProperty>> props = client->Properties(entity);
  if (!props.ok()) {
    *any_failure = true;
    return;
  }
  for (const KgProperty& p : *props) {
    std::string name = prefix.empty() ? p.predicate : prefix + "_" + p.predicate;
    if (p.is_entity) {
      (*out)[name].push_back(Value::String(p.entity_label));
      if (hops_left > 1) {
        GatherProperties(client, p.entity, name, hops_left - 1, out,
                         any_failure);
      }
    } else {
      (*out)[name].push_back(p.literal);
    }
  }
}

// Collapses a multi-valued attribute to a single Value.
Value CollapseValues(const std::vector<Value>& values,
                     AggregateFunction agg) {
  if (values.size() == 1) return values[0];
  bool all_numeric = true;
  for (const auto& v : values) {
    if (!v.is_numeric()) {
      all_numeric = false;
      break;
    }
  }
  if (all_numeric) {
    std::vector<double> nums;
    nums.reserve(values.size());
    for (const auto& v : values) nums.push_back(v.AsDouble());
    Result<double> r = ComputeAggregate(agg, nums);
    if (r.ok()) return Value::Double(*r);
    return Value::Null();
  }
  // Categorical one-to-many: deterministic representative.
  std::vector<std::string> texts;
  texts.reserve(values.size());
  for (const auto& v : values) texts.push_back(v.ToString());
  std::sort(texts.begin(), texts.end());
  return Value::String(texts.front());
}

// Per-key extraction output: attribute name -> collapsed value.
using ExtractedRows =
    std::vector<std::pair<std::string, std::map<std::string, Value>>>;

// Distinct non-null key values of a string column, sorted for determinism.
Result<std::vector<std::string>> DistinctKeys(const Table& table,
                                              const std::string& column) {
  MESA_ASSIGN_OR_RETURN(const Column* keys, table.ColumnByName(column));
  if (keys->type() != DataType::kString) {
    return Status::InvalidArgument(
        "extraction column must be string-valued: " + column);
  }
  std::vector<std::string> distinct;
  for (uint32_t code : keys->UsedCodes()) {
    distinct.push_back(keys->dictionary()[code]);
  }
  std::sort(distinct.begin(), distinct.end());
  return distinct;
}

// Assembles the universal relation from per-key rows: decides each
// attribute's type (double if every observed value is numeric, else
// string) and materialises one row per key value.
Result<Table> AssembleUniversalRelation(const std::string& column,
                                        const ExtractedRows& rows,
                                        const std::set<std::string>& attr_names) {
  // Type inference is independent per attribute (double if every
  // observed value is numeric, else string), and the names are already
  // sorted, so inferring in parallel and keeping name order changes
  // nothing about the schema.
  const std::vector<std::string> names(attr_names.begin(), attr_names.end());
  std::vector<DataType> types(names.size(), DataType::kDouble);
  ParallelFor(0, names.size(), [&](size_t a) {
    CancelCheckpoint();
    for (const auto& [key, attrs] : rows) {
      (void)key;
      auto it = attrs.find(names[a]);
      if (it != attrs.end() && !it->second.is_numeric()) {
        types[a] = DataType::kString;
        return;
      }
    }
  });

  Schema schema;
  MESA_RETURN_IF_ERROR(schema.AddField({column, DataType::kString}));
  for (size_t a = 0; a < names.size(); ++a) {
    MESA_RETURN_IF_ERROR(schema.AddField({names[a], types[a]}));
  }
  std::vector<Column> cols;
  cols.emplace_back(DataType::kString);
  for (DataType type : types) cols.emplace_back(type);
  // Each column is a pure function of its own attribute's values in row
  // order, so materializing column-parallel emits exactly the appends of
  // the serial row-major loop.
  ParallelFor(0, cols.size(), [&](size_t c) {
    CancelCheckpoint();
    if (c == 0) {
      for (const auto& [key, attrs] : rows) {
        (void)attrs;
        cols[0].AppendString(key);
      }
      return;
    }
    const std::string& name = names[c - 1];
    const DataType type = types[c - 1];
    for (const auto& [key, attrs] : rows) {
      (void)key;
      auto it = attrs.find(name);
      if (it == attrs.end()) {
        cols[c].AppendNull();
      } else if (type == DataType::kDouble) {
        cols[c].AppendDouble(it->second.AsDouble());
      } else {
        cols[c].AppendString(it->second.ToString());
      }
    }
  });
  return Table::Make(std::move(schema), std::move(cols));
}

// Collapses one key's multi-valued properties into its output row's
// attribute map, recording each surviving attribute name.
std::map<std::string, Value> CollapseProps(
    std::map<std::string, std::vector<Value>>& props, AggregateFunction agg,
    std::set<std::string>* attr_names) {
  std::map<std::string, Value> collapsed;
  for (auto& [name, values] : props) {
    Value v = CollapseValues(values, agg);
    if (!v.is_null()) {
      collapsed.emplace(name, std::move(v));
      attr_names->insert(name);
    }
  }
  return collapsed;
}

// Per-value scan output. The worker-sharded scan fills one slot per
// distinct key value; AssembleSlots then replays the slots in sorted key
// order, so rows, attribute names, and stats come out exactly as a serial
// loop produces them regardless of how the scan was scheduled across
// threads.
struct ValueSlot {
  enum class Outcome { kNotFound, kAmbiguous, kLinked, kFailed };
  Outcome outcome = Outcome::kNotFound;
  bool any_failure = false;  ///< linked, but a property fetch failed.
  std::map<std::string, std::vector<Value>> props;
  ResilientKgClient::Counters counters;  ///< the value's shard client.
};

// Fixed key chunk of the parallel slot replay; a constant so the chunk
// decomposition depends only on the key count.
constexpr size_t kAssembleChunkKeys = 256;
// Below this many keys the serial replay wins outright.
constexpr size_t kAssembleParallelThreshold = 512;

void AssembleSlots(const std::vector<std::string>& keys,
                   std::vector<ValueSlot>& slots, AggregateFunction agg,
                   ExtractionStats* stats, ExtractedRows* rows,
                   std::set<std::string>* attr_names) {
  // Replays one slot into its (precomputed) output row — exactly one row
  // per key, so rows are written by index — and tallies into
  // chunk-local stats/names that merge in chunk order below. Every
  // output is a pure per-key function plus an order-independent
  // reduction (integer sums, set union), so the parallel replay is
  // byte-identical to the serial one at any thread count.
  auto replay = [&](size_t i, ExtractionStats* st,
                    std::set<std::string>* names) {
    ValueSlot& slot = slots[i];
    std::map<std::string, Value> attrs;
    switch (slot.outcome) {
      case ValueSlot::Outcome::kFailed:
        ++st->values_failed;
        break;
      case ValueSlot::Outcome::kAmbiguous:
        ++st->values_ambiguous;
        break;
      case ValueSlot::Outcome::kNotFound:
        ++st->values_not_found;
        break;
      case ValueSlot::Outcome::kLinked:
        ++st->values_linked;
        if (slot.any_failure) ++st->values_failed;
        attrs = CollapseProps(slot.props, agg, names);
        break;
    }
    (*rows)[i] = {keys[i], std::move(attrs)};
  };

  rows->resize(keys.size());
  if (keys.size() < kAssembleParallelThreshold) {
    for (size_t i = 0; i < keys.size(); ++i) replay(i, stats, attr_names);
    return;
  }
  const size_t num_chunks =
      (keys.size() + kAssembleChunkKeys - 1) / kAssembleChunkKeys;
  std::vector<ExtractionStats> chunk_stats(num_chunks);
  std::vector<std::set<std::string>> chunk_names(num_chunks);
  ParallelFor(0, num_chunks, [&](size_t c) {
    CancelCheckpoint();
    const size_t lo = c * kAssembleChunkKeys;
    const size_t hi = std::min(keys.size(), lo + kAssembleChunkKeys);
    for (size_t i = lo; i < hi; ++i) {
      replay(i, &chunk_stats[c], &chunk_names[c]);
    }
  });
  for (size_t c = 0; c < num_chunks; ++c) {
    stats->values_linked += chunk_stats[c].values_linked;
    stats->values_ambiguous += chunk_stats[c].values_ambiguous;
    stats->values_not_found += chunk_stats[c].values_not_found;
    stats->values_failed += chunk_stats[c].values_failed;
    attr_names->insert(chunk_names[c].begin(), chunk_names[c].end());
  }
}

}  // namespace

Result<Table> ExtractAttributes(const Table& table, const std::string& column,
                                ResilientKgClient* client,
                                const ExtractionOptions& options,
                                ExtractionStats* stats) {
  MESA_SPAN("kg/extract");
  MESA_ASSIGN_OR_RETURN(const std::vector<std::string> keys,
                        DistinctKeys(table, column));

  ExtractionStats local_stats;
  local_stats.values_total = keys.size();

  // Each distinct value gets its own shard client (fresh clock, breaker,
  // cache over a cloned endpoint), so its retry/jitter/fault sequence is a
  // pure function of the value — never of which thread ran it or what
  // other values did first. The shard path is taken at *every* thread
  // count (including 1) so results cannot depend on the pool size even
  // under fault plans.
  std::vector<ValueSlot> slots(keys.size());
  ParallelFor(0, keys.size(), [&](size_t i) {
    CancelCheckpoint();  // per-value extraction checkpoint
    std::unique_ptr<ResilientKgClient> shard = client->CloneForShard();
    ValueSlot& slot = slots[i];
    Result<LinkResult> link = shard->Resolve(keys[i], options.linker);
    if (!link.ok()) {
      // The lookup itself died (deadline, permanent endpoint fault).
      // Degrade: keep the key with no attributes, count the failure.
      slot.outcome = ValueSlot::Outcome::kFailed;
    } else if (!link->linked()) {
      slot.outcome = link->outcome == LinkOutcome::kAmbiguous
                         ? ValueSlot::Outcome::kAmbiguous
                         : ValueSlot::Outcome::kNotFound;
    } else {
      slot.outcome = ValueSlot::Outcome::kLinked;
      GatherProperties(shard.get(), *link->entity, "", options.hops,
                       &slot.props, &slot.any_failure);
    }
    slot.counters = shard->counters();
  });
  ResilientKgClient::Counters total;
  for (const ValueSlot& slot : slots) {
    total.calls += slot.counters.calls;
    total.attempts += slot.counters.attempts;
    total.calls_retried += slot.counters.calls_retried;
    total.failures += slot.counters.failures;
    total.cache_hits += slot.counters.cache_hits;
  }
  client->AbsorbCounters(total);
  local_stats.lookups_retried = static_cast<size_t>(total.calls_retried);

  ExtractedRows rows;
  std::set<std::string> attr_names;
  AssembleSlots(keys, slots, options.one_to_many_agg, &local_stats, &rows,
                &attr_names);
  local_stats.attributes_extracted = attr_names.size();
  if (stats != nullptr) *stats = local_stats;

  if (local_stats.Coverage() < options.min_coverage) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "KG coverage %.1f%% below floor %.1f%% on column '%s' "
                  "(%zu of %zu values failed)",
                  100.0 * local_stats.Coverage(),
                  100.0 * options.min_coverage, column.c_str(),
                  local_stats.values_failed, local_stats.values_total);
    return Status::Unavailable(msg);
  }
  return AssembleUniversalRelation(column, rows, attr_names);
}

Result<AugmentResult> AugmentTableFromKg(
    const Table& table, const std::vector<std::string>& columns,
    ResilientKgClient* client, const ExtractionOptions& options) {
  AugmentResult out;
  out.table = table;
  for (const std::string& column : columns) {
    ExtractionStats stats;
    MESA_ASSIGN_OR_RETURN(
        Table extracted,
        ExtractAttributes(table, column, client, options, &stats));
    out.stats.values_total += stats.values_total;
    out.stats.values_linked += stats.values_linked;
    out.stats.values_ambiguous += stats.values_ambiguous;
    out.stats.values_not_found += stats.values_not_found;
    out.stats.values_failed += stats.values_failed;
    out.stats.lookups_retried += stats.lookups_retried;

    // Rename collisions with a column-specific prefix before joining.
    Schema renamed_schema;
    std::vector<Column> renamed_cols;
    MESA_RETURN_IF_ERROR(
        renamed_schema.AddField({column, DataType::kString}));
    renamed_cols.push_back(extracted.column(0));
    std::vector<std::string> final_names;
    for (size_t c = 1; c < extracted.num_columns(); ++c) {
      std::string name = extracted.schema().field(c).name;
      if (out.table.schema().Contains(name) ||
          std::find(out.extracted_columns.begin(),
                    out.extracted_columns.end(),
                    name) != out.extracted_columns.end()) {
        name = column + "." + name;
      }
      MESA_RETURN_IF_ERROR(renamed_schema.AddField(
          {name, extracted.schema().field(c).type}));
      renamed_cols.push_back(extracted.column(c));
      final_names.push_back(name);
    }
    MESA_ASSIGN_OR_RETURN(
        Table renamed,
        Table::Make(std::move(renamed_schema), std::move(renamed_cols)));
    MESA_ASSIGN_OR_RETURN(
        out.table, HashJoin(out.table, column, renamed, column,
                            {JoinType::kLeft, column + "."}));
    for (auto& name : final_names) {
      out.extracted_columns.push_back(std::move(name));
    }
    out.entity_tables.push_back(std::move(renamed));
  }
  out.stats.attributes_extracted = out.extracted_columns.size();
  MESA_COUNT_N("kg/values_total", out.stats.values_total);
  MESA_COUNT_N("kg/values_linked", out.stats.values_linked);
  MESA_COUNT_N("kg/values_ambiguous", out.stats.values_ambiguous);
  MESA_COUNT_N("kg/values_not_found", out.stats.values_not_found);
  MESA_COUNT_N("kg/values_failed", out.stats.values_failed);
  MESA_COUNT_N("kg/attributes_extracted", out.stats.attributes_extracted);
  return out;
}

}  // namespace mesa
