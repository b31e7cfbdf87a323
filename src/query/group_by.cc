#include "query/group_by.h"

#include <algorithm>
#include <array>
#include <map>
#include <utility>

#include "common/cancel.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace mesa {

namespace {

// Morsel-driven partitioned aggregation (Leis et al.): rows are scanned in
// fixed-size morsels, surviving rows are radix-partitioned on the hash of
// their group key, and each partition is aggregated independently. The
// constants are thread-count independent, so the work decomposition — and
// therefore every floating-point accumulation order — is too.
constexpr size_t kGroupByMorselRows = 2048;
constexpr size_t kGroupByPartitions = 64;  // power of two
// Below this row count the serial reference loop wins outright.
constexpr size_t kGroupByParallelThreshold = 4096;
// Fixed slice count of the order-stable parallel merge (phase 3); a
// constant, so slice boundaries depend only on the grouped data.
constexpr size_t kGroupByMergeSlices = 32;
// Below this many output groups the serial fold + finalize wins.
constexpr size_t kGroupByMergeThreshold = 256;

// Hash of one row's group-key tuple. Rows whose tuples compare equal hash
// identically (each tuple position reads one column, so values at a
// position share a physical type), which is what pins a whole group to one
// partition.
uint64_t GroupKeyHash(const std::vector<const Column*>& gcols, size_t r) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const Column* c : gcols) {
    h = MixSeed(h, static_cast<uint64_t>(ValueHash{}(c->GetValue(r))));
  }
  return h;
}

using PartitionMap = std::map<std::vector<Value>, AggregateAccumulator>;

// Phase 3 for large results: merges the per-partition maps into the
// globally sorted output and finalizes every group, morsel-parallel and
// order-stable. Partitions hold disjoint, internally sorted key sets, so
// the merged order is unique; the merge is sliced by splitter keys drawn
// from the largest partition — fixed positions, so the slice boundaries
// (hence the output) are a pure function of the data, never of the
// thread count. Each group's finalize is independent; output rows are
// written by precomputed global index. Byte-identical to the serial fold
// (asserted in tests/query_parallel_test.cc).
Result<GroupByResult> MergeFinalizeParallel(
    std::array<PartitionMap, kGroupByPartitions>* parts, size_t input_rows) {
  using Node = PartitionMap::value_type;
  std::array<std::vector<Node*>, kGroupByPartitions> flat;
  ParallelFor(0, kGroupByPartitions, [&](size_t p) {
    PartitionMap& part = (*parts)[p];
    flat[p].reserve(part.size());
    for (Node& kv : part) flat[p].push_back(&kv);
  });
  size_t big = 0;
  size_t total = 0;
  for (size_t p = 0; p < kGroupByPartitions; ++p) {
    total += flat[p].size();
    if (flat[p].size() > flat[big].size()) big = p;
  }

  // Partition p contributes [bounds[p][s], bounds[p][s+1]) to slice s.
  // Slice s covers the key range [splitter s-1, splitter s); duplicate
  // splitters (a pivot partition smaller than the slice count) just
  // yield empty slices.
  constexpr size_t kSlices = kGroupByMergeSlices;
  std::array<std::array<size_t, kSlices + 1>, kGroupByPartitions> bounds;
  std::array<const std::vector<Value>*, kSlices> splitters;  // [1, kSlices)
  for (size_t s = 1; s < kSlices; ++s) {
    splitters[s] = &flat[big][s * flat[big].size() / kSlices]->first;
  }
  ParallelFor(0, kGroupByPartitions, [&](size_t p) {
    bounds[p][0] = 0;
    bounds[p][kSlices] = flat[p].size();
    for (size_t s = 1; s < kSlices; ++s) {
      bounds[p][s] =
          std::lower_bound(flat[p].begin(), flat[p].end(), *splitters[s],
                           [](const Node* e, const std::vector<Value>& key) {
                             return e->first < key;
                           }) -
          flat[p].begin();
    }
  });
  std::array<size_t, kSlices + 1> slice_off{};
  for (size_t s = 0; s < kSlices; ++s) {
    size_t size = 0;
    for (size_t p = 0; p < kGroupByPartitions; ++p) {
      size += bounds[p][s + 1] - bounds[p][s];
    }
    slice_off[s + 1] = slice_off[s] + size;
  }
  MESA_CHECK(slice_off[kSlices] == total);

  GroupByResult out;
  out.input_rows = input_rows;
  out.groups.resize(total);
  std::array<Status, kSlices> slice_err;
  ParallelFor(0, kSlices, [&](size_t s) {
    CancelCheckpoint();
    std::array<size_t, kGroupByPartitions> cur;
    for (size_t p = 0; p < kGroupByPartitions; ++p) cur[p] = bounds[p][s];
    for (size_t at = slice_off[s]; at < slice_off[s + 1]; ++at) {
      int best = -1;
      for (size_t p = 0; p < kGroupByPartitions; ++p) {
        if (cur[p] == bounds[p][s + 1]) continue;
        if (best < 0 ||
            flat[p][cur[p]]->first < flat[best][cur[best]]->first) {
          best = static_cast<int>(p);
        }
      }
      Node* e = flat[best][cur[best]++];
      Result<double> v = e->second.Finalize();
      if (!v.ok()) {
        slice_err[s] = v.status();
        return;
      }
      GroupResult& g = out.groups[at];
      g.group = e->first.front();
      g.values = e->first;
      g.aggregate = *v;
      g.count = e->second.count();
    }
  });
  // Deterministic first-error semantics: lowest slice (therefore lowest
  // global group index) wins, matching what the serial loop would hit.
  for (const Status& st : slice_err) {
    if (!st.ok()) return st;
  }
  return out;
}

}  // namespace

Result<Table> GroupByResult::ToTable(const std::string& group_column,
                                     const std::string& agg_column) const {
  // Group values can be any type; infer from the first group.
  DataType group_type = DataType::kString;
  if (!groups.empty()) {
    group_type = groups[0].group.type();
    if (group_type == DataType::kNull) group_type = DataType::kString;
  }
  Schema schema;
  MESA_RETURN_IF_ERROR(schema.AddField({group_column, group_type}));
  MESA_RETURN_IF_ERROR(schema.AddField({agg_column, DataType::kDouble}));
  Column gcol(group_type);
  Column acol(DataType::kDouble);
  for (const auto& g : groups) {
    MESA_RETURN_IF_ERROR(gcol.Append(g.group));
    acol.AppendDouble(g.aggregate);
  }
  return Table::Make(std::move(schema), {std::move(gcol), std::move(acol)});
}

Result<GroupByResult> GroupByAggregate(const Table& table,
                                       const std::string& group_col,
                                       const std::string& outcome_col,
                                       AggregateFunction agg,
                                       const Conjunction& context) {
  return GroupByAggregate(table, std::vector<std::string>{group_col},
                          outcome_col, agg, context);
}

Result<GroupByResult> GroupByAggregate(
    const Table& table, const std::vector<std::string>& group_cols,
    const std::string& outcome_col, AggregateFunction agg,
    const Conjunction& context) {
  MESA_SPAN("query/group_by");
  MESA_COUNT("query/group_bys");
  if (group_cols.empty()) {
    return Status::InvalidArgument("need at least one grouping column");
  }
  std::vector<const Column*> gcols;
  gcols.reserve(group_cols.size());
  for (const auto& name : group_cols) {
    MESA_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(name));
    gcols.push_back(c);
  }
  MESA_ASSIGN_OR_RETURN(const Column* ocol, table.ColumnByName(outcome_col));
  if (ocol->type() == DataType::kString) {
    return Status::InvalidArgument("outcome column must be numeric: " +
                                   outcome_col);
  }
  MESA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                        context.EvaluateMask(table));

  const size_t n = table.num_rows();
  size_t input_rows = 0;
  // Groups keyed by the value tuple: std::map gives deterministic (sorted)
  // order, and within a group rows are accumulated in ascending row order.
  // Both paths below preserve exactly that; the parallel one is asserted
  // bit-identical in tests/query_parallel_test.cc.
  std::map<std::vector<Value>, AggregateAccumulator> accs;

  if (n < kGroupByParallelThreshold) {
    std::vector<Value> key(gcols.size());
    for (size_t r = 0; r < n; ++r) {
      // Cancellation checkpoint at morsel granularity, mirroring the
      // parallel path (abort-or-continue only; cannot perturb results).
      if (r % kGroupByMorselRows == 0) CancelCheckpoint();
      if (!mask[r]) continue;
      ++input_rows;
      if (ocol->IsNull(r)) continue;
      bool null_key = false;
      for (size_t c = 0; c < gcols.size(); ++c) {
        if (gcols[c]->IsNull(r)) {
          null_key = true;
          break;
        }
        key[c] = gcols[c]->GetValue(r);
      }
      if (null_key) continue;
      auto it = accs.find(key);
      if (it == accs.end()) {
        it = accs.emplace(key, AggregateAccumulator(agg)).first;
      }
      it->second.Add(ocol->NumericAt(r));
    }
  } else {
    // Phase 1 — morsel scan: apply the context mask and null rules, then
    // bucket each surviving row by the radix partition of its key hash.
    // Buckets keep rows in ascending order within a morsel.
    struct MorselBuckets {
      size_t input_rows = 0;
      std::array<std::vector<uint32_t>, kGroupByPartitions> rows;
    };
    const size_t num_morsels =
        (n + kGroupByMorselRows - 1) / kGroupByMorselRows;
    std::vector<MorselBuckets> morsels(num_morsels);
    ParallelFor(0, num_morsels, [&](size_t m) {
      CancelCheckpoint();
      MorselBuckets& mb = morsels[m];
      const size_t lo = m * kGroupByMorselRows;
      const size_t hi = std::min(n, lo + kGroupByMorselRows);
      for (size_t r = lo; r < hi; ++r) {
        if (!mask[r]) continue;
        ++mb.input_rows;
        if (ocol->IsNull(r)) continue;
        bool null_key = false;
        for (const Column* c : gcols) {
          if (c->IsNull(r)) {
            null_key = true;
            break;
          }
        }
        if (null_key) continue;
        const size_t p = GroupKeyHash(gcols, r) & (kGroupByPartitions - 1);
        mb.rows[p].push_back(static_cast<uint32_t>(r));
      }
    });

    // Phase 2 — per-partition aggregation. A group lives entirely in one
    // partition (its partition is a function of its key), and walking the
    // morsels in order feeds the partition its rows in global row order —
    // so each accumulator sees the exact Add sequence of the serial loop.
    std::array<std::map<std::vector<Value>, AggregateAccumulator>,
               kGroupByPartitions>
        parts;
    ParallelFor(0, kGroupByPartitions, [&](size_t p) {
      CancelCheckpoint();
      auto& part = parts[p];
      std::vector<Value> key(gcols.size());
      for (const MorselBuckets& mb : morsels) {
        for (uint32_t r : mb.rows[p]) {
          for (size_t c = 0; c < gcols.size(); ++c) {
            key[c] = gcols[c]->GetValue(r);
          }
          auto it = part.find(key);
          if (it == part.end()) {
            it = part.emplace(key, AggregateAccumulator(agg)).first;
          }
          it->second.Add(ocol->NumericAt(r));
        }
      }
    });

    for (const MorselBuckets& mb : morsels) input_rows += mb.input_rows;

    // Phase 3 — merge in canonical order: partitions are disjoint by
    // key, so their (already sorted) maps interleave into one unique
    // global order without touching any accumulator. Large results take
    // the sliced parallel merge + finalize; small ones fold serially
    // into `accs` below (bit-identical either way).
    size_t total_groups = 0;
    for (const auto& part : parts) total_groups += part.size();
    if (total_groups >= kGroupByMergeThreshold) {
      return MergeFinalizeParallel(&parts, input_rows);
    }
    for (auto& part : parts) {
      for (auto& [k, acc] : part) {
        accs.emplace(k, std::move(acc));
      }
      part.clear();
    }
  }

  GroupByResult out;
  out.input_rows = input_rows;
  out.groups.reserve(accs.size());
  for (const auto& [k, acc] : accs) {
    MESA_ASSIGN_OR_RETURN(double v, acc.Finalize());
    GroupResult g;
    g.group = k.front();
    g.values = k;
    g.aggregate = v;
    g.count = acc.count();
    out.groups.push_back(std::move(g));
  }
  return out;
}

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
