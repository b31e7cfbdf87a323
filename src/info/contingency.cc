#include "info/contingency.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/retry.h"

namespace mesa {

uint64_t CodedVariable::fingerprint() const {
  uint64_t v = fp.Load();
  if (v != 0) return v;
  uint64_t h = StableHash64Bytes(codes.data(), codes.size() * sizeof(int32_t));
  h ^= static_cast<uint64_t>(static_cast<uint32_t>(cardinality)) *
       0x9E3779B97F4A7C15ULL;
  if (h == 0) h = 1;  // 0 is the "not computed" sentinel
  fp.Store(h);
  return h;
}

CodedVariable ConstantCode(size_t n) {
  CodedVariable constant;
  constant.codes.assign(n, 0);
  constant.cardinality = 1;
  return constant;
}

namespace {

// CombinePair numbers (a, b) pairs through a dense first-seen table of
// a.cardinality * b.cardinality slots when that product is at most
// kDensePairSlotsPerRow * n + kDensePairSlotsBase; above it a hash map keeps
// the memory proportional to the pairs actually seen. Both number pairs in
// order of first appearance, so their codes are identical.
constexpr uint64_t kDensePairSlotsPerRow = 4;
constexpr uint64_t kDensePairSlotsBase = 4096;

CodedVariable CombinePairHashed(const CodedVariable& a,
                                const CodedVariable& b) {
  CodedVariable out;
  out.codes.resize(a.codes.size());
  std::unordered_map<uint64_t, int32_t> dict;
  dict.reserve(64);
  for (size_t i = 0; i < a.codes.size(); ++i) {
    if (a.codes[i] < 0 || b.codes[i] < 0) {
      out.codes[i] = -1;
      continue;
    }
    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(a.codes[i]))
                    << 32) |
                   static_cast<uint32_t>(b.codes[i]);
    auto [it, inserted] =
        dict.emplace(key, static_cast<int32_t>(dict.size()));
    (void)inserted;
    out.codes[i] = it->second;
  }
  out.cardinality = static_cast<int32_t>(dict.size());
  return out;
}

}  // namespace

CodedVariable CombinePair(const CodedVariable& a, const CodedVariable& b) {
  MESA_CHECK(a.codes.size() == b.codes.size());
  const size_t n = a.codes.size();
  const uint64_t ka =
      static_cast<uint64_t>(std::max<int32_t>(0, a.cardinality));
  const uint64_t kb =
      static_cast<uint64_t>(std::max<int32_t>(0, b.cardinality));
  if (ka * kb > kDensePairSlotsPerRow * n + kDensePairSlotsBase) {
    return CombinePairHashed(a, b);
  }
  CodedVariable out;
  out.codes.resize(n);
  std::vector<int32_t> slot(ka * kb, -1);
  int32_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t ca = a.codes[i];
    const int32_t cb = b.codes[i];
    if (ca < 0 || cb < 0) {
      out.codes[i] = -1;
      continue;
    }
    // A code at or past its declared cardinality breaks the CodedVariable
    // contract; the hash path numbers such pairs all the same.
    if (static_cast<uint64_t>(ca) >= ka || static_cast<uint64_t>(cb) >= kb) {
      return CombinePairHashed(a, b);
    }
    int32_t& s = slot[static_cast<uint64_t>(ca) * kb +
                      static_cast<uint64_t>(cb)];
    if (s < 0) s = next++;
    out.codes[i] = s;
  }
  out.cardinality = next;
  return out;
}

CodedVariable CombineAll(const std::vector<const CodedVariable*>& vars,
                         size_t n) {
  if (vars.empty()) return ConstantCode(n);
  CodedVariable acc = *vars[0];
  for (size_t i = 1; i < vars.size(); ++i) {
    acc = CombinePair(acc, *vars[i]);
  }
  return acc;
}

std::vector<double> WeightedCounts(const CodedVariable& x,
                                   const std::vector<double>* weights,
                                   double* total) {
  // Size by the observed maximum when the declared cardinality is huge —
  // callers may pass pessimistic cardinalities (e.g. a product bound) and
  // the count vector must not balloon past the actual support.
  size_t size = static_cast<size_t>(std::max<int32_t>(0, x.cardinality));
  constexpr size_t kDenseLimit = size_t{1} << 22;
  if (size > kDenseLimit) {
    int32_t max_code = -1;
    for (int32_t c : x.codes) max_code = std::max(max_code, c);
    size = static_cast<size_t>(max_code + 1);
  }
  std::vector<double> counts(size, 0.0);
  double sum = 0.0;
  for (size_t i = 0; i < x.codes.size(); ++i) {
    int32_t c = x.codes[i];
    if (c < 0) continue;
    double w = weights != nullptr ? (*weights)[i] : 1.0;
    counts[static_cast<size_t>(c)] += w;
    sum += w;
  }
  if (total != nullptr) *total = sum;
  return counts;
}

}  // namespace mesa
