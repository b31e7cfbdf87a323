#include "stats/discretizer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/logging.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "info/info_cache.h"

namespace mesa {

namespace {

// Content-addressed memo for DiscretizeColumn: key = (column content
// fingerprint, strategy, num_bins, categorical_threshold). Discretisation
// is a pure function of exactly those inputs, so a hit returns the bytes a
// recompute would produce. Shares the info-cache on/off gate — both exist
// to make repeated queries over the same context cheap.
ShardedLruCache<std::shared_ptr<const Discretized>>* DiscretizerCache() {
  static auto* cache =
      new ShardedLruCache<std::shared_ptr<const Discretized>>(uint64_t{4}
                                                              << 20);
  return cache;
}

std::atomic<uint64_t> g_discretizer_hits{0};
std::atomic<uint64_t> g_discretizer_misses{0};

uint64_t DiscretizeKey(const Column& col, const DiscretizerOptions& options) {
  uint64_t h = col.ContentFingerprint();
  h = MixSeed(h, static_cast<uint64_t>(options.strategy) * 2 + 1);
  h = MixSeed(h, options.num_bins);
  h = MixSeed(h, options.categorical_threshold);
  return h;
}

std::string FormatRange(double lo, double hi) {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "[%.4g, %.4g)", lo, hi);
  return buf;
}

// Categorical coding: one code per distinct value, sorted for determinism.
Discretized CodeCategorical(const std::vector<Value>& cells) {
  std::map<Value, int32_t> codes;
  for (const auto& v : cells) {
    if (!v.is_null()) codes.emplace(v, 0);
  }
  int32_t next = 0;
  Discretized out;
  for (auto& [value, code] : codes) {
    code = next++;
    out.labels.push_back(value.ToString());
  }
  out.cardinality = next;
  out.codes.reserve(cells.size());
  for (const auto& v : cells) {
    if (v.is_null()) {
      out.codes.push_back(-1);
    } else {
      out.codes.push_back(codes.at(v));
    }
  }
  return out;
}

// Low-cardinality numeric coding, shared by columns and raw vectors.
// `sorted` holds the valid `values` (nulls where `valid` is 0; empty = all
// valid) in ascending order. Fills `distinct` with its distinct values and
// returns true when there are at most `limit`; stops and returns false past
// `limit`. Sorting leaves -0.0 and 0.0 in no particular order, so the zero
// kept is the first valid one in row order, the one a std::set filled in
// row order keeps: its label prints the same sign.
bool SortedDistinctAtMost(const std::vector<double>& values,
                          const std::vector<uint8_t>& valid,
                          const std::vector<double>& sorted, size_t limit,
                          std::vector<double>* distinct) {
  distinct->clear();
  for (double v : sorted) {
    if (!distinct->empty() && distinct->back() == v) continue;
    if (distinct->size() == limit) return false;
    distinct->push_back(v);
  }
  for (double& d : *distinct) {
    if (d != 0.0) continue;
    for (size_t i = 0; i < values.size(); ++i) {
      if ((valid.empty() || valid[i]) && values[i] == 0.0) {
        d = values[i];
        break;
      }
    }
    break;
  }
  return true;
}

// One code per distinct value in ascending order, found by binary search;
// labels print each value with "%.6g". Nulls where `valid` is 0 (empty =
// all valid).
Discretized CodeDistinct(const std::vector<double>& distinct,
                         const std::vector<double>& values,
                         const std::vector<uint8_t>& valid) {
  Discretized out;
  out.cardinality = static_cast<int32_t>(distinct.size());
  for (double v : distinct) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out.labels.push_back(buf);
  }
  out.codes.assign(values.size(), -1);
  for (size_t i = 0; i < values.size(); ++i) {
    if (!valid.empty() && !valid[i]) continue;
    auto it = std::lower_bound(distinct.begin(), distinct.end(), values[i]);
    out.codes[i] = static_cast<int32_t>(it - distinct.begin());
  }
  return out;
}

// Bins `values` (nulls where `valid` is 0; empty = all valid). `sorted`
// holds the valid values in ascending order (std::sort of them in row
// order).
Discretized BinNumeric(const std::vector<double>& values,
                       const std::vector<uint8_t>& valid,
                       const std::vector<double>& sorted,
                       const DiscretizerOptions& options) {
  Discretized out;
  if (sorted.empty()) {
    out.codes.assign(values.size(), -1);
    out.cardinality = 0;
    return out;
  }

  // Bin edges: k-1 interior cut points; value v -> first bin whose upper
  // edge exceeds v.
  std::vector<double> edges;
  size_t k = std::max<size_t>(1, options.num_bins);
  if (options.strategy == BinningStrategy::kEqualWidth) {
    // The first minimum and the last maximum in row order, as
    // std::minmax_element picks them (the sign of a zero shows in labels).
    double mn = 0.0, mx = 0.0;
    bool first = true;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!valid.empty() && !valid[i]) continue;
      const double v = values[i];
      if (first || v < mn) mn = v;
      if (first || !(v < mx)) mx = v;
      first = false;
    }
    if (mn == mx) {
      k = 1;
    } else {
      double width = (mx - mn) / static_cast<double>(k);
      for (size_t i = 1; i < k; ++i) edges.push_back(mn + width * i);
    }
    double lo = mn;
    for (size_t i = 0; i < k; ++i) {
      double hi = i + 1 < k ? edges[i] : mx;
      out.labels.push_back(FormatRange(lo, hi));
      lo = hi;
    }
  } else {
    std::set<double> cuts;
    for (size_t i = 1; i < k; ++i) {
      size_t idx = i * sorted.size() / k;
      cuts.insert(sorted[idx]);
    }
    // Drop cut points equal to the minimum (they would create empty bins).
    cuts.erase(sorted.front());
    edges.assign(cuts.begin(), cuts.end());
    k = edges.size() + 1;
    double lo = sorted.front();
    for (size_t i = 0; i < k; ++i) {
      double hi = i < edges.size() ? edges[i] : sorted.back();
      out.labels.push_back(FormatRange(lo, hi));
      lo = hi;
    }
  }

  out.cardinality = static_cast<int32_t>(k);
  out.codes.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (!valid.empty() && !valid[i]) {
      out.codes.push_back(-1);
      continue;
    }
    double v = values[i];
    auto it = std::upper_bound(edges.begin(), edges.end(), v);
    out.codes.push_back(static_cast<int32_t>(it - edges.begin()));
  }
  return out;
}

Result<Discretized> DiscretizeColumnUncached(const Column* col,
                                             const DiscretizerOptions& options) {
  const size_t n = col->size();

  if (col->type() == DataType::kString) {
    // Sort the dictionary entries valid rows use by their bytes once, then
    // remap every row's code in one pass: labels in sorted order.
    const std::vector<std::string>& dict = col->dictionary();
    std::vector<uint32_t> used = col->UsedCodes();
    std::sort(used.begin(), used.end(),
              [&](uint32_t a, uint32_t b) { return dict[a] < dict[b]; });
    std::vector<int32_t> remap(dict.size(), -1);
    Discretized out;
    for (size_t i = 0; i < used.size(); ++i) {
      remap[used[i]] = static_cast<int32_t>(i);
      out.labels.push_back(dict[used[i]]);
    }
    out.cardinality = static_cast<int32_t>(used.size());
    out.codes.resize(n);
    const uint32_t* codes = col->code_data();
    for (size_t r = 0; r < n; ++r) {
      out.codes[r] = col->IsValid(r) ? remap[codes[r]] : -1;
    }
    return out;
  }
  if (col->type() == DataType::kBool) {
    std::vector<Value> cells;
    cells.reserve(n);
    for (size_t r = 0; r < n; ++r) cells.push_back(col->GetValue(r));
    return CodeCategorical(cells);
  }

  // Numeric: the valid values in row order, sorted once for both the
  // low-cardinality test and the bins.
  std::vector<double> values(n, 0.0);
  std::vector<uint8_t> valid(n, 0);
  std::vector<double> sorted;
  sorted.reserve(n - col->null_count());
  for (size_t r = 0; r < n; ++r) {
    if (col->IsValid(r)) {
      values[r] = col->NumericAt(r);
      valid[r] = 1;
      sorted.push_back(values[r]);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> distinct;
  if (SortedDistinctAtMost(values, valid, sorted,
                           options.categorical_threshold, &distinct)) {
    return CodeDistinct(distinct, values, valid);
  }
  return BinNumeric(values, valid, sorted, options);
}

}  // namespace

Result<Discretized> DiscretizeColumn(const Table& table,
                                     const std::string& column,
                                     const DiscretizerOptions& options) {
  MESA_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column));
  const bool use_cache = info_cache::Enabled();
  uint64_t key = 0;
  if (use_cache) {
    key = DiscretizeKey(*col, options);
    std::shared_ptr<const Discretized> hit;
    if (DiscretizerCache()->Lookup(key, &hit)) {
      g_discretizer_hits.fetch_add(1, std::memory_order_relaxed);
      return *hit;
    }
    g_discretizer_misses.fetch_add(1, std::memory_order_relaxed);
  }
  MESA_ASSIGN_OR_RETURN(Discretized out,
                        DiscretizeColumnUncached(col, options));
  if (use_cache) {
    DiscretizerCache()->Insert(key, std::make_shared<const Discretized>(out),
                               out.codes.size() + 1);
  }
  return out;
}

DiscretizerCacheStats GetDiscretizerCacheStats() {
  DiscretizerCacheStats s;
  s.hits = g_discretizer_hits.load(std::memory_order_relaxed);
  s.misses = g_discretizer_misses.load(std::memory_order_relaxed);
  return s;
}

void ClearDiscretizerCache() { DiscretizerCache()->Clear(); }

Discretized DiscretizeVector(const std::vector<double>& values,
                             const DiscretizerOptions& options) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> distinct;
  if (SortedDistinctAtMost(values, {}, sorted, options.categorical_threshold,
                           &distinct)) {
    return CodeDistinct(distinct, values, {});
  }
  return BinNumeric(values, {}, sorted, options);
}

}  // namespace mesa
