#include "info/cmi_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/parallel_sort.h"
#include "info/key_packing.h"

namespace mesa {
namespace info_internal {

namespace {

using info_cache::CubeEntry;

// Fixed morsel for the pack / run-length phases. A constant (never a
// function of the thread count) so every row's destination — and every
// run's owning chunk — is a pure function of the data.
constexpr size_t kPackChunkRows = size_t{1} << 15;

// Per-worker scratch for the dense kernel. The buffers hold the joint
// count cube and its three marginal projections; they grow to the
// largest key space seen by this thread and are *restored to all-zero*
// after every call by walking the touched cells (O(support)) instead of
// re-zeroing the whole buffer (O(cells), up to 8 MB per call at the
// 20-bit dense limit). The all-zero invariant between calls is what the
// counting loops rely on.
struct DenseArena {
  std::vector<double> xyz;
  std::vector<double> xz;
  std::vector<double> yz;
  std::vector<double> z;
};

DenseArena& Arena() {
  thread_local DenseArena arena;
  return arena;
}

void EnsureZeroed(std::vector<double>* buf, size_t size) {
  if (buf->size() < size) buf->resize(size, 0.0);
}

// A kept row in the packed kernel's sort vector (weighted variant).
struct KeyWeight {
  uint64_t key;
  double weight;
};

// Concatenates per-chunk vectors in chunk order — the parallel tail of
// the run-length phase. Offsets are prefix sums, so the result is the
// exact sequence a serial pass would have emitted.
void ConcatChunks(std::vector<std::vector<CubeEntry>>* parts,
                  std::vector<CubeEntry>* out) {
  std::vector<size_t> offsets(parts->size() + 1, 0);
  for (size_t c = 0; c < parts->size(); ++c) {
    offsets[c + 1] = offsets[c] + (*parts)[c].size();
  }
  out->resize(offsets.back());
  ParallelFor(0, parts->size(), [&](size_t c) {
    std::copy((*parts)[c].begin(), (*parts)[c].end(),
              out->begin() + offsets[c]);
  });
}

// Run-length counts a sorted row vector into cells. Each fixed chunk
// owns the runs *starting* inside it (a run extends past the chunk
// boundary; the continuation is skipped by the next chunk), and each
// run's weight is summed left-to-right — input-row order, since the sort
// was stable. The concatenated result is ascending by key with every
// floating-point sum in canonical order, at any thread count.
template <typename Row, typename KeyFn, typename SumFn>
void RunLengthCount(const std::vector<Row>& rows, const KeyFn& key_of,
                    const SumFn& sum_run, std::vector<CubeEntry>* entries) {
  const size_t n = rows.size();
  const size_t num_chunks =
      std::max<size_t>(1, (n + kPackChunkRows - 1) / kPackChunkRows);
  std::vector<std::vector<CubeEntry>> parts(num_chunks);
  ParallelFor(0, num_chunks, [&](size_t c) {
    CancelCheckpoint();
    size_t i = c * kPackChunkRows;
    const size_t hi = std::min(n, i + kPackChunkRows);
    if (i > 0 && i < n && key_of(rows[i - 1]) == key_of(rows[i])) {
      // This chunk opens mid-run; the run belongs to an earlier chunk.
      const uint64_t k = key_of(rows[i]);
      while (i < hi && key_of(rows[i]) == k) ++i;
    }
    std::vector<CubeEntry>& local = parts[c];
    while (i < hi) {
      const uint64_t k = key_of(rows[i]);
      size_t j = i;
      while (j < n && key_of(rows[j]) == k) ++j;
      local.push_back(CubeEntry{k, sum_run(i, j)});
      i = j;
    }
  });
  ConcatChunks(&parts, entries);
}

// Gathers the kept rows (all three codes present; positive weight when
// weighted) into a packed-key sort vector, in input-row order. Two-pass
// morsel-parallel: per-chunk kept counts, prefix offsets, disjoint fill.
template <typename Row, typename MakeFn>
void PackRows(size_t n, const MakeFn& make_row, std::vector<Row>* rows) {
  const size_t num_chunks =
      std::max<size_t>(1, (n + kPackChunkRows - 1) / kPackChunkRows);
  std::vector<size_t> kept(num_chunks, 0);
  ParallelFor(0, num_chunks, [&](size_t c) {
    CancelCheckpoint();
    const size_t lo = c * kPackChunkRows;
    const size_t hi = std::min(n, lo + kPackChunkRows);
    size_t count = 0;
    Row scratch;
    for (size_t i = lo; i < hi; ++i) {
      if (make_row(i, &scratch)) ++count;
    }
    kept[c] = count;
  });
  std::vector<size_t> offsets(num_chunks + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    offsets[c + 1] = offsets[c] + kept[c];
  }
  rows->resize(offsets.back());
  ParallelFor(0, num_chunks, [&](size_t c) {
    CancelCheckpoint();
    const size_t lo = c * kPackChunkRows;
    const size_t hi = std::min(n, lo + kPackChunkRows);
    size_t at = offsets[c];
    Row scratch;
    for (size_t i = lo; i < hi; ++i) {
      if (make_row(i, &scratch)) (*rows)[at++] = scratch;
    }
  });
}

}  // namespace

void BuildDenseEntries(const CodedVariable& x, const CodedVariable& y,
                       const CodedVariable& z,
                       const std::vector<double>* weights, int bx, int by,
                       int bz, std::vector<CubeEntry>* entries) {
  const size_t cells = size_t{1} << (bx + by + bz);
  std::vector<double>& xyz = Arena().xyz;
  EnsureZeroed(&xyz, cells);
  const size_t n = x.codes.size();
  if (weights == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      int32_t cx = x.codes[i], cy = y.codes[i], cz = z.codes[i];
      if ((cx | cy | cz) < 0) continue;  // any missing
      size_t key = (static_cast<size_t>(cx) << (by + bz)) |
                   (static_cast<size_t>(cy) << bz) | static_cast<size_t>(cz);
      xyz[key] += 1.0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      int32_t cx = x.codes[i], cy = y.codes[i], cz = z.codes[i];
      if ((cx | cy | cz) < 0) continue;
      double w = (*weights)[i];
      if (w <= 0.0) continue;
      size_t key = (static_cast<size_t>(cx) << (by + bz)) |
                   (static_cast<size_t>(cy) << bz) | static_cast<size_t>(cz);
      xyz[key] += w;
    }
  }
  entries->clear();
  for (size_t key = 0; key < cells; ++key) {
    double c = xyz[key];
    if (c <= 0.0) continue;
    entries->push_back(CubeEntry{key, c});
    xyz[key] = 0.0;
  }
}

void BuildPackedEntries(const CodedVariable& x, const CodedVariable& y,
                        const CodedVariable& z,
                        const std::vector<double>* weights, int bx, int by,
                        int bz, std::vector<CubeEntry>* entries) {
  const int key_bits = bx + by + bz;
  MESA_DCHECK(key_bits <= 64);
  const size_t n = x.codes.size();
  if (weights == nullptr) {
    std::vector<uint64_t> keys;
    PackRows<uint64_t>(
        n,
        [&](size_t i, uint64_t* row) {
          int32_t cx = x.codes[i], cy = y.codes[i], cz = z.codes[i];
          if ((cx | cy | cz) < 0) return false;
          *row = info_internal::PackKey3(static_cast<uint64_t>(cx),
                                         static_cast<uint64_t>(cy),
                                         static_cast<uint64_t>(cz), by, bz);
          return true;
        },
        &keys);
    StableRadixSort(&keys, key_bits);
    RunLengthCount(
        keys, [](uint64_t k) { return k; },
        // Integer run length: exactly the value the dense arena reaches
        // by adding 1.0 per row (exact for any count below 2^53).
        [](size_t i, size_t j) { return static_cast<double>(j - i); },
        entries);
  } else {
    std::vector<KeyWeight> rows;
    PackRows<KeyWeight>(
        n,
        [&](size_t i, KeyWeight* row) {
          int32_t cx = x.codes[i], cy = y.codes[i], cz = z.codes[i];
          if ((cx | cy | cz) < 0) return false;
          double w = (*weights)[i];
          if (w <= 0.0) return false;
          row->key = info_internal::PackKey3(static_cast<uint64_t>(cx),
                                             static_cast<uint64_t>(cy),
                                             static_cast<uint64_t>(cz), by, bz);
          row->weight = w;
          return true;
        },
        &rows);
    StableRadixSortByKey(&rows, key_bits,
                         [](const KeyWeight& r) { return r.key; });
    RunLengthCount(
        rows, [](const KeyWeight& r) { return r.key; },
        // Left-to-right over a stable-sorted run = input-row order: the
        // dense arena's accumulation order for this cell, bit for bit.
        [&rows](size_t i, size_t j) {
          double c = 0.0;
          for (size_t k = i; k < j; ++k) c += rows[k].weight;
          return c;
        },
        entries);
  }
}

double SumEntriesAscending(const std::vector<CubeEntry>& entries) {
  double total = 0.0;
  for (const CubeEntry& e : entries) total += e.count;
  return total;
}

namespace {

// Sparse marginal projection: maps each cube cell to its projected key
// (in entries order), stable-sorts, and folds runs — per projected cell
// the addends arrive in xyz-entries order, and cells are visited
// ascending, so the entropy accumulation is bitwise the same sequence of
// operations as the dense arena projection below.
template <typename ProjFn>
double SparseProjectionEntropy(const std::vector<CubeEntry>& entries,
                               const ProjFn& proj, int proj_bits,
                               double inv_total, size_t* support) {
  std::vector<CubeEntry> cells(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    cells[i].key = proj(entries[i].key);
    cells[i].count = entries[i].count;
  }
  StableRadixSortByKey(&cells, proj_bits,
                       [](const CubeEntry& e) { return e.key; });
  double h = 0.0;
  size_t s = 0;
  size_t i = 0;
  while (i < cells.size()) {
    const uint64_t k = cells[i].key;
    double c = 0.0;
    size_t j = i;
    while (j < cells.size() && cells[j].key == k) c += cells[j++].count;
    if (c > 0.0) {
      ++s;
      double p = c * inv_total;
      h -= p * std::log2(p);
    }
    i = j;
  }
  *support = s;
  return h;
}

}  // namespace

double CmiFromEntries(const std::vector<CubeEntry>& entries, double total,
                      const EntropyOptions& options, int bx, int by,
                      int bz) {
  if (total <= 0.0) return 0.0;
  const double inv_total = 1.0 / total;
  double h_xyz = 0.0;
  size_t support_xyz = 0;
  double h_xz = 0.0, h_yz = 0.0, h_z = 0.0;
  size_t s_xz = 0, s_yz = 0, s_z = 0;

  if (bx + by + bz <= kDenseCmiBits) {
    // Small key space: project through the flat arena (O(1) per addend).
    DenseArena& arena = Arena();
    const size_t cells_xz = size_t{1} << (bx + bz);
    const size_t cells_yz = size_t{1} << (by + bz);
    const size_t cells_z = size_t{1} << bz;
    EnsureZeroed(&arena.xz, cells_xz);
    EnsureZeroed(&arena.yz, cells_yz);
    EnsureZeroed(&arena.z, cells_z);
    for (const CubeEntry& e : entries) {
      double c = e.count;
      if (c <= 0.0) continue;
      ++support_xyz;
      double p = c * inv_total;
      h_xyz -= p * std::log2(p);
      uint64_t kx, ky, kz;
      UnpackKey3(e.key, by, bz, &kx, &ky, &kz);
      arena.xz[(kx << bz) | kz] += c;
      arena.yz[(ky << bz) | kz] += c;
      arena.z[kz] += c;
    }
    auto entropy_of = [&](const std::vector<double>& counts, size_t limit,
                          size_t* support) {
      double h = 0.0;
      size_t s = 0;
      for (size_t i = 0; i < limit; ++i) {
        double c = counts[i];
        if (c <= 0.0) continue;
        ++s;
        double p = c * inv_total;
        h -= p * std::log2(p);
      }
      *support = s;
      return h;
    };
    h_xz = entropy_of(arena.xz, cells_xz, &s_xz);
    h_yz = entropy_of(arena.yz, cells_yz, &s_yz);
    h_z = entropy_of(arena.z, cells_z, &s_z);
    // Restore the arena's all-zero invariant by touched cell (repeated
    // zeroing of a shared projection cell is harmless).
    for (const CubeEntry& e : entries) {
      uint64_t kx, ky, kz;
      UnpackKey3(e.key, by, bz, &kx, &ky, &kz);
      arena.xz[(kx << bz) | kz] = 0.0;
      arena.yz[(ky << bz) | kz] = 0.0;
      arena.z[kz] = 0.0;
    }
  } else {
    // Wide key space: sorted sparse projections. Same cell visit order
    // and same per-cell addend order as the arena path, so the bits
    // match wherever both could run.
    for (const CubeEntry& e : entries) {
      double c = e.count;
      if (c <= 0.0) continue;
      ++support_xyz;
      double p = c * inv_total;
      h_xyz -= p * std::log2(p);
    }
    const uint64_t mask_z = (uint64_t{1} << bz) - 1;
    h_xz = SparseProjectionEntropy(
        entries,
        [by, bz, mask_z](uint64_t key) {
          return ((key >> (by + bz)) << bz) | (key & mask_z);
        },
        bx + bz, inv_total, &s_xz);
    h_yz = SparseProjectionEntropy(
        entries,
        [by, bz](uint64_t key) {
          return key & ((uint64_t{1} << (by + bz)) - 1);
        },
        by + bz, inv_total, &s_yz);
    h_z = SparseProjectionEntropy(
        entries, [mask_z](uint64_t key) { return key & mask_z; }, bz,
        inv_total, &s_z);
  }

  if (options.miller_madow) {
    const double mm = 1.0 / (2.0 * total * std::log(2.0));
    if (support_xyz > 1) h_xyz += (support_xyz - 1) * mm;
    if (s_xz > 1) h_xz += (s_xz - 1) * mm;
    if (s_yz > 1) h_yz += (s_yz - 1) * mm;
    if (s_z > 1) h_z += (s_z - 1) * mm;
  }
  return std::max(0.0, h_xz + h_yz - h_xyz - h_z);
}

}  // namespace info_internal
}  // namespace mesa
