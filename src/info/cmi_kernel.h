#ifndef MESA_INFO_CMI_KERNEL_H_
#define MESA_INFO_CMI_KERNEL_H_

/// The CMI kernel family behind MutualInformation /
/// ConditionalMutualInformation (see docs/architecture.md, "Execution
/// plane: kernel selection"). Every kernel reduces the coded rows to the
/// same *canonical sparse cube* — nonzero joint cells ascending by
/// packed (x, y, z) key, each cell's weight summed in input-row order,
/// the grand total summed over cells ascending — and derives the four
/// entropy terms from it in one fixed order. Because the cube (and every
/// floating-point summation order downstream of it) is canonical, the
/// dense and packed kernels are bit-identical to each other at any
/// thread count, no matter which call (or which axis layout) first
/// materialized the cube. That is what lets the InfoCache joint-cube
/// layer serve *both* kernels: a cube counted at 30 bits by one
/// partition of a triple is repacked and replayed bit-exactly by any
/// other partition.
///
/// Kernels:
///   - dense:  row scan into a flat per-thread arena, cells extracted
///             ascending. O(2^bits) memory — only up to 20 key bits.
///   - packed: pack rows into 64-bit keys, morsel-parallel *stable*
///             radix sort (common/parallel_sort.h), run-length count
///             runs into cells. O(rows) memory — up to 64 key bits.
///             Bit-identical to dense where both apply.
///
/// Selection is a pure function of the key width: dense up to 20 bits,
/// packed up to 64, and the CombinePair chain-rule fallback in
/// mutual_information.cc beyond. Which kernel ran is counted in the
/// info/kernel_{dense,packed,fallback} metrics (docs/observability.md).

#include <cstdint>
#include <vector>

#include "info/contingency.h"
#include "info/entropy.h"
#include "info/info_cache.h"

namespace mesa {
namespace info_internal {

/// Key-width ceiling of the dense kernel: above this the flat arena
/// (2^bits cells) stops paying for itself and selection moves to the
/// packed kernel.
constexpr int kDenseCmiBits = 20;

/// Builds the canonical sparse cube by dense counting: one row scan into
/// a flat per-thread arena of 2^(bx+by+bz) cells, nonzero cells
/// extracted ascending by key. Rows with any variable missing (code < 0)
/// are skipped, as are rows whose weight is <= 0. Requires
/// bx + by + bz small enough that the arena fits (the dispatcher caps it
/// at 20 bits).
void BuildDenseEntries(const CodedVariable& x, const CodedVariable& y,
                       const CodedVariable& z,
                       const std::vector<double>* weights, int bx, int by,
                       int bz, std::vector<info_cache::CubeEntry>* entries);

/// Builds the *same* canonical sparse cube by sort-packing: pack each
/// kept row into a 64-bit key, stable-radix-sort the keys
/// (morsel-parallel, order-stable), and run-length count each run into a
/// cell. Stability keeps equal-key rows in input order, so every cell's
/// weight sum replays the dense arena's accumulation order exactly:
/// entries are bitwise equal to BuildDenseEntries' at any thread count.
/// Requires bx + by + bz <= 64.
void BuildPackedEntries(const CodedVariable& x, const CodedVariable& y,
                        const CodedVariable& z,
                        const std::vector<double>* weights, int bx, int by,
                        int bz, std::vector<info_cache::CubeEntry>* entries);

/// The canonical grand total: cell counts summed ascending by key. Both
/// cube kernels (and cube-cache hits, after repacking into the caller's
/// layout) derive their total this way, so the value is independent of
/// which kernel — or which cached cube — produced the entries.
double SumEntriesAscending(const std::vector<info_cache::CubeEntry>& entries);

/// I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z) from a canonical cube.
/// Entries must be ascending by key in the caller's (bx, by, bz) layout;
/// all four entropy accumulations walk cells ascending by (projected)
/// key, with each projection cell's addends in entries order. The flat
/// arena is used for the projections when the key space is small, a
/// sorted sparse projection otherwise — the two walk cells in the same
/// order, so the choice never changes a bit of the result.
double CmiFromEntries(const std::vector<info_cache::CubeEntry>& entries,
                      double total, const EntropyOptions& options, int bx,
                      int by, int bz);

}  // namespace info_internal
}  // namespace mesa

#endif  // MESA_INFO_CMI_KERNEL_H_
