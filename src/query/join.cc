#include "query/join.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace mesa {

namespace {

// Morsel size for the parallel build/probe scans; thread-count independent
// so the decomposition (and with it the output row order) never changes.
constexpr size_t kJoinMorselRows = 2048;
// Below this row count the index builds serially.
constexpr size_t kJoinParallelThreshold = 4096;

// Radix partition of a key value. A pure function of the value, so a key
// lands in the same partition no matter which thread hashes it.
size_t KeyPartition(const Value& v) {
  return MixSeed(0x9E3779B97F4A7C15ULL,
                 static_cast<uint64_t>(ValueHash{}(v))) &
         63;  // KeyIndex::kPartitions - 1
}

// The build side of a join: right key -> first row holding it. The index
// is radix-partitioned on the key hash so construction can proceed
// partition-parallel; the partition of a key is a pure function of its
// value, so the finished structure — and which duplicate row wins — is
// identical at any thread count.
class KeyIndex {
 public:
  // Builds the index over `right[right_key]`. Null keys are skipped. If a
  // key occurs on multiple rows the first occurrence wins and a warning is
  // logged (see HashJoin in join.h for why duplicates are collapsed).
  static Result<KeyIndex> Build(const Table& right,
                                 const std::string& right_key);

  // Row of the right side holding `key`, or -1 if absent. Null never
  // matches.
  int64_t Find(const Value& key) const;

 private:
  static constexpr size_t kPartitions = 64;  // power of two

  KeyIndex() = default;

  size_t duplicate_keys_ = 0;
  std::array<std::unordered_map<Value, size_t, ValueHash>, kPartitions> parts_;
};

}  // namespace

Result<KeyIndex> KeyIndex::Build(const Table& right,
                                   const std::string& right_key) {
  static_assert(kPartitions == 64, "KeyPartition masks with 63");
  MESA_ASSIGN_OR_RETURN(const Column* rkey, right.ColumnByName(right_key));

  KeyIndex index;

  const size_t n = right.num_rows();
  if (n < kJoinParallelThreshold) {
    for (size_t r = 0; r < n; ++r) {
      if (r % kJoinMorselRows == 0) CancelCheckpoint();
      if (rkey->IsNull(r)) continue;
      auto [it, inserted] =
          index.parts_[KeyPartition(rkey->GetValue(r))].emplace(
              rkey->GetValue(r), r);
      (void)it;
      if (!inserted) ++index.duplicate_keys_;
    }
  } else {
    // Phase 1 — morsel scan: bucket each non-null key row by partition,
    // preserving row order within a morsel.
    struct MorselBuckets {
      std::array<std::vector<uint32_t>, kPartitions> rows;
    };
    const size_t num_morsels = (n + kJoinMorselRows - 1) / kJoinMorselRows;
    std::vector<MorselBuckets> morsels(num_morsels);
    ParallelFor(0, num_morsels, [&](size_t m) {
      CancelCheckpoint();
      MorselBuckets& mb = morsels[m];
      const size_t lo = m * kJoinMorselRows;
      const size_t hi = std::min(n, lo + kJoinMorselRows);
      for (size_t r = lo; r < hi; ++r) {
        if (rkey->IsNull(r)) continue;
        mb.rows[KeyPartition(rkey->GetValue(r))].push_back(
            static_cast<uint32_t>(r));
      }
    });

    // Phase 2 — per-partition insert. Walking morsels in order feeds each
    // partition its rows in global row order, so "first occurrence wins"
    // resolves exactly as in the serial loop.
    std::array<size_t, kPartitions> dup_counts{};
    ParallelFor(0, kPartitions, [&](size_t p) {
      CancelCheckpoint();
      auto& part = index.parts_[p];
      for (const MorselBuckets& mb : morsels) {
        for (uint32_t r : mb.rows[p]) {
          auto [it, inserted] = part.emplace(rkey->GetValue(r), r);
          (void)it;
          if (!inserted) ++dup_counts[p];
        }
      }
    });
    for (size_t d : dup_counts) index.duplicate_keys_ += d;
  }

  if (index.duplicate_keys_ > 0) {
    MESA_LOG(Warning) << "HashJoin: " << index.duplicate_keys_
                      << " duplicate right-side keys ignored";
  }
  return index;
}

int64_t KeyIndex::Find(const Value& key) const {
  const auto& part = parts_[KeyPartition(key)];
  auto it = part.find(key);
  return it == part.end() ? -1 : static_cast<int64_t>(it->second);
}

Result<Table> HashJoin(const Table& left, const std::string& left_key,
                       const Table& right, const std::string& right_key,
                       const JoinOptions& options) {
  MESA_ASSIGN_OR_RETURN(KeyIndex index, KeyIndex::Build(right, right_key));
  MESA_SPAN("query/join");
  MESA_COUNT("query/hash_joins");
  MESA_ASSIGN_OR_RETURN(const Column* lkey, left.ColumnByName(left_key));

  // Probe: per-morsel match buffers, concatenated in morsel index order —
  // byte-for-byte the row order of a serial front-to-back probe. An input
  // of one morsel runs inline.
  struct MorselMatches {
    std::vector<size_t> left_rows;
    std::vector<size_t> right_rows;  // Column::kNullRow = unmatched
  };
  const size_t n = left.num_rows();
  const size_t num_morsels = (n + kJoinMorselRows - 1) / kJoinMorselRows;
  std::vector<MorselMatches> morsels(num_morsels);
  ParallelFor(0, num_morsels, [&](size_t m) {
    CancelCheckpoint();
    MorselMatches& mm = morsels[m];
    const size_t lo = m * kJoinMorselRows;
    const size_t hi = std::min(n, lo + kJoinMorselRows);
    for (size_t r = lo; r < hi; ++r) {
      size_t match = Column::kNullRow;
      if (!lkey->IsNull(r)) {
        const int64_t found = index.Find(lkey->GetValue(r));
        if (found >= 0) match = static_cast<size_t>(found);
      }
      if (match == Column::kNullRow && options.type == JoinType::kInner) {
        continue;
      }
      mm.left_rows.push_back(r);
      mm.right_rows.push_back(match);
    }
  });
  // Concatenate the per-morsel buffers in morsel order via prefix
  // offsets: every morsel knows its destination, so the copies run in
  // parallel and the row order is exactly the serial probe's.
  std::vector<size_t> offsets(num_morsels + 1, 0);
  for (size_t m = 0; m < num_morsels; ++m) {
    offsets[m + 1] = offsets[m] + morsels[m].left_rows.size();
  }
  std::vector<size_t> left_rows(offsets.back());
  std::vector<size_t> right_rows(offsets.back());
  ParallelFor(0, num_morsels, [&](size_t m) {
    const MorselMatches& mm = morsels[m];
    std::copy(mm.left_rows.begin(), mm.left_rows.end(),
              left_rows.begin() + offsets[m]);
    std::copy(mm.right_rows.begin(), mm.right_rows.end(),
              right_rows.begin() + offsets[m]);
  });

  // Assemble output: all left columns, then right columns minus its key,
  // both gathered by Take (unmatched rows gather nulls). Output names,
  // collision handling included, are resolved before any right gather.
  Table out = left.TakeRows(left_rows);
  std::vector<std::pair<size_t, std::string>> kept;  // right col idx, name
  for (size_t c = 0; c < right.num_columns(); ++c) {
    const Field& f = right.schema().field(c);
    if (f.name == right_key) continue;
    std::string name = f.name;
    if (out.schema().Contains(name)) name = options.collision_prefix + name;
    if (out.schema().Contains(name)) {
      return Status::AlreadyExists("column collision even after prefix: " +
                                   name);
    }
    for (const auto& [idx, taken] : kept) {
      (void)idx;
      if (taken == name) {
        return Status::AlreadyExists("column collision even after prefix: " +
                                     name);
      }
    }
    kept.emplace_back(c, std::move(name));
  }

  for (const auto& [c, name] : kept) {
    CancelCheckpoint();
    MESA_RETURN_IF_ERROR(out.AddColumn({name, right.schema().field(c).type},
                                       right.column(c).Take(right_rows)));
  }
  return out;
}

}  // namespace mesa
