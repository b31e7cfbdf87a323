#include "missing/mask.h"

#include <algorithm>
#include <cmath>

namespace mesa {

std::vector<uint8_t> MissingnessIndicator(const Column& column) {
  std::vector<uint8_t> r(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    r[i] = column.IsValid(i) ? 1 : 0;
  }
  return r;
}

Result<size_t> InjectMissing(Table* table, const std::string& column,
                             double fraction, RemovalMode mode, Rng* rng) {
  if (fraction < 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("fraction must be in [0, 1]");
  }
  MESA_ASSIGN_OR_RETURN(Column* col, table->MutableColumnByName(column));
  std::vector<size_t> present;
  for (size_t i = 0; i < col->size(); ++i) {
    if (col->IsValid(i)) present.push_back(i);
  }
  size_t to_remove = static_cast<size_t>(
      std::llround(fraction * static_cast<double>(present.size())));
  if (to_remove == 0) return static_cast<size_t>(0);

  if (mode == RemovalMode::kRandom) {
    rng->Shuffle(present);
  } else {
    if (col->type() == DataType::kString) {
      return Status::InvalidArgument(
          "biased removal requires a numeric column: " + column);
    }
    // Highest values first.
    std::sort(present.begin(), present.end(), [&](size_t a, size_t b) {
      return col->NumericAt(a) > col->NumericAt(b);
    });
  }
  for (size_t k = 0; k < to_remove; ++k) col->SetNull(present[k]);
  return to_remove;
}

}  // namespace mesa
