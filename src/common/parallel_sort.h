#ifndef MESA_COMMON_PARALLEL_SORT_H_
#define MESA_COMMON_PARALLEL_SORT_H_

/// Morsel-parallel *stable* LSD radix sort. This is the primitive under
/// the sort-packed CMI kernel (src/info/cmi_kernel.h): packed row keys
/// are sorted ascending and then run-length counted into a sparse cube
/// whose summation order is canonical. Stability is load-bearing there —
/// rows carrying equal keys must keep their input (row) order so every
/// per-cell floating-point accumulation replays the serial order.
///
/// Determinism contract (same as common/parallel.h): the output is the
/// unique stable ascending order of the input, so it is byte-identical at
/// any thread count — and identical to the serial std::stable_sort
/// fallback used below the parallel threshold. The parallel plan is the
/// classic three-phase counting sort per 8-bit digit:
///
///   1. per-chunk digit histograms (chunk boundaries are fixed constants,
///      never thread-count dependent),
///   2. an exclusive scan over (digit-major, chunk-minor) counts, which
///      assigns every element a unique destination slot,
///   3. a parallel scatter — each chunk writes to disjoint, precomputed
///      slots, preserving chunk-internal order, hence stability.
///
/// Keys must fit in `key_bits` low bits (higher bits, if any, are ignored
/// by the digit extraction only when they are beyond the last pass — the
/// caller guarantees keys < 2^key_bits; this is checked in debug builds).

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/parallel.h"

namespace mesa {

namespace sort_internal {

/// Fixed chunk size for histogram/scatter phases. A constant (never a
/// function of the thread count) so destination slots are a pure function
/// of the data.
constexpr size_t kRadixChunkRows = size_t{1} << 15;

/// Below this size one std::stable_sort call beats the multi-pass radix
/// machinery outright.
constexpr size_t kRadixParallelThreshold = size_t{1} << 15;

}  // namespace sort_internal

/// Stable ascending sort of `data` by the low `key_bits` bits of
/// `key_of(element)` (a uint64_t). `key_of` must be pure. Elements must be
/// trivially copyable in spirit (they are moved through a scratch buffer
/// by assignment). Every key must be < 2^key_bits.
template <typename T, typename KeyFn>
void StableRadixSortByKey(std::vector<T>* data, int key_bits,
                          const KeyFn& key_of) {
  using sort_internal::kRadixChunkRows;
  using sort_internal::kRadixParallelThreshold;
  const size_t n = data->size();
  if (n < 2) return;
  MESA_DCHECK(key_bits >= 1 && key_bits <= 64);

  // Small inputs take one std::stable_sort call; everything else runs the
  // radix plan below — including on a single thread (ParallelFor runs the
  // chunks inline), where the linear-time passes still beat a comparison
  // sort by a wide margin. Output is the unique stable order either way.
  if (n < kRadixParallelThreshold) {
    std::stable_sort(data->begin(), data->end(),
                     [&](const T& a, const T& b) {
                       return key_of(a) < key_of(b);
                     });
    return;
  }

  const int passes = (key_bits + 7) / 8;
  std::vector<T> scratch(n);
  T* src = data->data();
  T* dst = scratch.data();
  const size_t num_chunks = (n + kRadixChunkRows - 1) / kRadixChunkRows;
  // hist[c][d]: elements of chunk c whose current digit is d. Chunk counts
  // fit 32 bits (kRadixChunkRows << 2^32); running offsets need size_t.
  std::vector<std::array<uint32_t, 256>> hist(num_chunks);
  std::vector<size_t> starts(num_chunks * 256);

  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * 8;
    ParallelFor(0, num_chunks, [&](size_t c) {
      CancelCheckpoint();
      std::array<uint32_t, 256>& h = hist[c];
      h.fill(0);
      const size_t lo = c * kRadixChunkRows;
      const size_t hi = std::min(n, lo + kRadixChunkRows);
      for (size_t i = lo; i < hi; ++i) {
        MESA_DCHECK(key_bits == 64 ||
                    key_of(src[i]) < (uint64_t{1} << key_bits));
        ++h[(key_of(src[i]) >> shift) & 0xFF];
      }
    });
    // Exclusive scan in (digit-major, chunk-minor) order: all of digit 0
    // across the chunks in order, then digit 1, ... — exactly the layout
    // a serial stable counting sort would produce.
    size_t run = 0;
    for (size_t d = 0; d < 256; ++d) {
      for (size_t c = 0; c < num_chunks; ++c) {
        starts[c * 256 + d] = run;
        run += hist[c][d];
      }
    }
    ParallelFor(0, num_chunks, [&](size_t c) {
      CancelCheckpoint();
      std::array<size_t, 256> cursor;
      for (size_t d = 0; d < 256; ++d) cursor[d] = starts[c * 256 + d];
      const size_t lo = c * kRadixChunkRows;
      const size_t hi = std::min(n, lo + kRadixChunkRows);
      for (size_t i = lo; i < hi; ++i) {
        dst[cursor[(key_of(src[i]) >> shift) & 0xFF]++] = src[i];
      }
    });
    std::swap(src, dst);
  }
  if (src != data->data()) {
    // Odd pass count: the sorted sequence sits in the scratch buffer.
    std::copy(scratch.begin(), scratch.end(), data->begin());
  }
}

/// Stable ascending sort of raw 64-bit keys (identity key function).
inline void StableRadixSort(std::vector<uint64_t>* keys, int key_bits) {
  StableRadixSortByKey(keys, key_bits, [](uint64_t k) { return k; });
}

}  // namespace mesa

#endif  // MESA_COMMON_PARALLEL_SORT_H_
