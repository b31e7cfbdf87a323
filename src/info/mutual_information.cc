#include "info/mutual_information.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "info/cmi_kernel.h"
#include "info/info_cache.h"
#include "info/key_packing.h"

namespace mesa {

namespace {

using info_cache::CubeEntry;
using info_cache::JointCube;
using info_internal::BitsFor;
using info_internal::BuildDenseEntries;
using info_internal::BuildPackedEntries;
using info_internal::CmiFromEntries;
using info_internal::kDenseCmiBits;
using info_internal::PackKey3;
using info_internal::SumEntriesAscending;
using info_internal::UnpackKey3;

// Scalar-memo tag of every (C)MI value. MI memoizes under it too (it
// *is* a CMI with a constant conditioning axis), so the same expression
// reached via either entry point shares one memo slot. The dense and
// packed kernels share it — they are bit-identical by the canonical-cube
// contract.
constexpr uint64_t kTagCmi = 0x434D49;  // "CMI"

enum class Kernel { kDense, kPacked, kFallback };

// Picks the kernel for a packed key width and bumps its selection
// counter (docs/observability.md).
Kernel SelectKernel(int key_bits) {
  if (key_bits <= kDenseCmiBits) {
    MESA_COUNT("info/kernel_dense");
    return Kernel::kDense;
  }
  if (key_bits <= 64) {
    MESA_COUNT("info/kernel_packed");
    return Kernel::kPacked;
  }
  MESA_COUNT("info/kernel_fallback");
  return Kernel::kFallback;
}

// Matches our (x, y, z) axis identities against a cached cube's axes.
// On success perm[j] is the cube axis holding our j-th variable. Bits
// are compared as a collision guard on top of the fingerprints.
bool MatchAxes(const JointCube& cube, const uint64_t fps[3],
               const int bits[3], int perm[3]) {
  bool used[3] = {false, false, false};
  for (int j = 0; j < 3; ++j) {
    perm[j] = -1;
    for (int a = 0; a < 3; ++a) {
      if (used[a]) continue;
      if (cube.axes[a].fingerprint == fps[j] && cube.axes[a].bits == bits[j]) {
        used[a] = true;
        perm[j] = a;
        break;
      }
    }
    if (perm[j] < 0) return false;
  }
  return true;
}

// Translates a cached cube (counted in some other call's axis order)
// into the requesting call's layout and sorts ascending — producing
// exactly the entry sequence a fresh build would have emitted: cell
// counts are stable row-order sums of the same rows in any layout, and
// the caller re-derives the grand total from the repacked ascending
// order, so nothing downstream can tell a cache hit from a fresh count.
void RepackEntries(const JointCube& cube, const int perm[3], int by, int bz,
                   std::vector<CubeEntry>* out) {
  const int cube_by = cube.axes[1].bits;
  const int cube_bz = cube.axes[2].bits;
  out->resize(cube.entries.size());
  for (size_t i = 0; i < cube.entries.size(); ++i) {
    uint64_t k[3];
    UnpackKey3(cube.entries[i].key, cube_by, cube_bz, &k[0], &k[1], &k[2]);
    (*out)[i].key = PackKey3(k[perm[0]], k[perm[1]], k[perm[2]], by, bz);
    (*out)[i].count = cube.entries[i].count;
  }
  std::sort(out->begin(), out->end(),
            [](const CubeEntry& a, const CubeEntry& b) {
              return a.key < b.key;
            });
}

// CMI through a canonical-cube kernel (dense or packed — bit-identical,
// so they share memo slots and cubes), with both cache layers. Cache off
// reduces to exactly the kernel (no fingerprinting, no lookups).
double CachedCubeCmi(const CodedVariable& x, const CodedVariable& y,
                     const CodedVariable& z,
                     const std::vector<double>* weights,
                     const EntropyOptions& options, int bx, int by, int bz,
                     bool dense_build) {
  return info_cache::Memoized(
      kTagCmi, {&x, &y, &z}, weights, options.miller_madow,
      [&](const uint64_t* fps, uint64_t wfp) {
        thread_local std::vector<CubeEntry> entries;
        auto build = [&] {
          if (dense_build) {
            BuildDenseEntries(x, y, z, weights, bx, by, bz, &entries);
          } else {
            BuildPackedEntries(x, y, z, weights, bx, by, bz, &entries);
          }
        };
        if (fps == nullptr) {
          build();
        } else {
          const int bits[3] = {bx, by, bz};
          const uint64_t ckey =
              info_cache::CubeKey(fps[0], fps[1], fps[2], wfp);
          std::shared_ptr<const JointCube> cube = info_cache::LookupCube(ckey);
          int perm[3];
          if (cube != nullptr && MatchAxes(*cube, fps, bits, perm)) {
            RepackEntries(*cube, perm, by, bz, &entries);
          } else {
            build();
            if (cube == nullptr) {
              auto fresh = std::make_shared<JointCube>();
              fresh->axes[0] = {fps[0], bx};
              fresh->axes[1] = {fps[1], by};
              fresh->axes[2] = {fps[2], bz};
              fresh->entries = entries;
              fresh->total = SumEntriesAscending(entries);
              info_cache::InsertCube(ckey, std::move(fresh));
            }
          }
        }
        return CmiFromEntries(entries, SumEntriesAscending(entries), options,
                              bx, by, bz);
      });
}

// Masks variable `v` to the rows present in `support` (code >= 0), so all
// entropy terms of an MI/CMI expression share one sample.
CodedVariable MaskTo(const CodedVariable& v, const CodedVariable& support) {
  CodedVariable out = v;
  for (size_t i = 0; i < out.codes.size(); ++i) {
    if (support.codes[i] < 0) out.codes[i] = -1;
  }
  return out;
}

// The constant conditioning axis MI lends to the CMI kernels. Cached per
// thread so its fingerprint (an O(n) hash) is computed once per row
// count rather than per call.
const CodedVariable& TrivialFor(size_t n) {
  thread_local CodedVariable trivial;
  if (trivial.codes.size() != n || trivial.cardinality != 1) {
    trivial.codes.assign(n, 0);
    trivial.cardinality = 1;
    trivial.InvalidateFingerprint();
  }
  return trivial;
}

}  // namespace

double MutualInformation(const CodedVariable& x, const CodedVariable& y,
                         const std::vector<double>* weights,
                         const EntropyOptions& options) {
  MESA_CHECK(x.size() == y.size());
  MESA_COUNT("info/mi_evals");
  MESA_SPAN("mi");
  CancelCheckpoint();  // per-estimator-evaluation checkpoint
  // I(X;Y) = I(X;Y|const): MI goes through a cube kernel with a constant
  // conditioning axis, which is what lets MI evaluations share cubes (and
  // memo slots) with CMI over the same pair.
  int bx = BitsFor(std::max<int32_t>(1, x.cardinality));
  int by = BitsFor(std::max<int32_t>(1, y.cardinality));
  const Kernel kernel = SelectKernel(bx + by + 1);
  // An int32_t cardinality needs at most 31 bits, so the key is <= 63.
  MESA_DCHECK(kernel != Kernel::kFallback);
  return CachedCubeCmi(x, y, TrivialFor(x.codes.size()), weights, options,
                       bx, by, 1, kernel == Kernel::kDense);
}

double ConditionalMutualInformation(const CodedVariable& x,
                                    const CodedVariable& y,
                                    const CodedVariable& z,
                                    const std::vector<double>* weights,
                                    const EntropyOptions& options) {
  MESA_CHECK(x.size() == y.size() && y.size() == z.size());
  MESA_COUNT("info/cmi_evals");
  MESA_SPAN("cmi");
  CancelCheckpoint();  // per-estimator-evaluation checkpoint
  int bx = BitsFor(std::max<int32_t>(1, x.cardinality));
  int by = BitsFor(std::max<int32_t>(1, y.cardinality));
  int bz = BitsFor(std::max<int32_t>(1, z.cardinality));
  const Kernel kernel = SelectKernel(bx + by + bz);
  if (kernel != Kernel::kFallback) {
    return CachedCubeCmi(x, y, z, weights, options, bx, by, bz,
                         kernel == Kernel::kDense);
  }
  // Key too wide for any packed kernel (> 64 bits): derive from the
  // composite-entropy identity.
  return info_cache::Memoized(
      kTagCmi, {&x, &y, &z}, weights, options.miller_madow,
      [&](const uint64_t*, uint64_t) {
        CodedVariable xz = CombinePair(x, z);
        CodedVariable yz = CombinePair(y, z);
        CodedVariable xyz = CombinePair(xz, y);
        double h_xz = Entropy(MaskTo(xz, xyz), weights, options);
        double h_yz = Entropy(MaskTo(yz, xyz), weights, options);
        double h_xyz = Entropy(xyz, weights, options);
        double h_z = Entropy(MaskTo(z, xyz), weights, options);
        return std::max(0.0, h_xz + h_yz - h_xyz - h_z);
      });
}

double InteractionInformation(const CodedVariable& x, const CodedVariable& y,
                              const CodedVariable& z,
                              const std::vector<double>* weights,
                              const EntropyOptions& options) {
  // Evaluate both terms over the common support of all three variables so
  // the difference is meaningful under missing data.
  CodedVariable xyz = CombinePair(CombinePair(x, z), y);
  CodedVariable xm = MaskTo(x, xyz);
  CodedVariable ym = MaskTo(y, xyz);
  CodedVariable zm = MaskTo(z, xyz);
  double mi = MutualInformation(xm, ym, weights, options);
  double cmi = ConditionalMutualInformation(xm, ym, zm, weights, options);
  return mi - cmi;
}

}  // namespace mesa
