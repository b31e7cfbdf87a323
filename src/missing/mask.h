#ifndef MESA_MISSING_MASK_H_
#define MESA_MISSING_MASK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "table/table.h"

namespace mesa {

/// The selection indicator R_E of Section 3.2: R_E[i] = 1 iff the value of
/// attribute E was extracted (is non-null) for row i.
std::vector<uint8_t> MissingnessIndicator(const Column& column);

/// How to remove values in the Fig. 3 robustness experiments.
enum class RemovalMode {
  /// Missing completely at random.
  kRandom,
  /// Biased removal: the top-x fraction of the *highest* values are
  /// removed (numeric columns only) — the paper's adversarial mode, which
  /// induces selection bias by construction.
  kTopValues,
};

/// Removes `fraction` of the currently present values from `column` of
/// `table` (in place) using the given mode. Returns the number of cells
/// nulled. kTopValues on a non-numeric column is an error.
Result<size_t> InjectMissing(Table* table, const std::string& column,
                             double fraction, RemovalMode mode, Rng* rng);

}  // namespace mesa

#endif  // MESA_MISSING_MASK_H_
