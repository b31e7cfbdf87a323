#include "table/column.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <unordered_set>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/retry.h"
#include "common/rng.h"

namespace mesa {

Column::Column(DataType type) : type_(type) {
  MESA_CHECK(type != DataType::kNull);
}

Column::Column(const Column& other)
    : type_(other.type_),
      size_(other.size_),
      null_count_(other.null_count_),
      valid_ptr_(other.valid_ptr_),
      double_ptr_(other.double_ptr_),
      int_ptr_(other.int_ptr_),
      bool_ptr_(other.bool_ptr_),
      codes_ptr_(other.codes_ptr_),
      dict_(other.dict_),
      owner_(other.owner_),
      valid_(other.valid_),
      doubles_(other.doubles_),
      ints_(other.ints_),
      codes_(other.codes_),
      bools_(other.bools_) {
  // A borrowed copy shares the owner and keeps the borrowed pointers; an
  // owned copy must re-point at its *own* vectors, not the source's.
  if (owner_ == nullptr) SyncPointers();
}

Column& Column::operator=(const Column& other) {
  if (this == &other) return *this;
  Column copy(other);
  *this = std::move(copy);
  return *this;
}

Column::Column(Column&& other) noexcept
    : type_(other.type_),
      size_(other.size_),
      null_count_(other.null_count_),
      valid_ptr_(other.valid_ptr_),
      double_ptr_(other.double_ptr_),
      int_ptr_(other.int_ptr_),
      bool_ptr_(other.bool_ptr_),
      codes_ptr_(other.codes_ptr_),
      dict_(std::move(other.dict_)),
      intern_slots_(std::move(other.intern_slots_)),
      owner_(std::move(other.owner_)),
      valid_(std::move(other.valid_)),
      doubles_(std::move(other.doubles_)),
      ints_(std::move(other.ints_)),
      codes_(std::move(other.codes_)),
      bools_(std::move(other.bools_)) {
  // Vector moves transfer the heap buffer, so owned pointers stay valid;
  // re-sync anyway to keep the invariant obvious and the moved-from
  // column consistent (empty).
  if (owner_ == nullptr) SyncPointers();
  other.size_ = 0;
  other.null_count_ = 0;
  other.SyncPointers();
}

Column& Column::operator=(Column&& other) noexcept {
  if (this == &other) return *this;
  type_ = other.type_;
  size_ = other.size_;
  null_count_ = other.null_count_;
  valid_ptr_ = other.valid_ptr_;
  double_ptr_ = other.double_ptr_;
  int_ptr_ = other.int_ptr_;
  bool_ptr_ = other.bool_ptr_;
  codes_ptr_ = other.codes_ptr_;
  dict_ = std::move(other.dict_);
  intern_slots_ = std::move(other.intern_slots_);
  owner_ = std::move(other.owner_);
  valid_ = std::move(other.valid_);
  doubles_ = std::move(other.doubles_);
  ints_ = std::move(other.ints_);
  codes_ = std::move(other.codes_);
  bools_ = std::move(other.bools_);
  if (owner_ == nullptr) SyncPointers();
  other.size_ = 0;
  other.null_count_ = 0;
  other.SyncPointers();
  return *this;
}

void Column::SyncPointers() {
  valid_ptr_ = valid_.data();
  double_ptr_ = doubles_.data();
  int_ptr_ = ints_.data();
  codes_ptr_ = codes_.data();
  bool_ptr_ = bools_.data();
}

void Column::EnsureOwned() {
  if (owner_ == nullptr) return;
  valid_.assign(valid_ptr_, valid_ptr_ + size_);
  switch (type_) {
    case DataType::kDouble:
      doubles_.assign(double_ptr_, double_ptr_ + size_);
      break;
    case DataType::kInt64:
      ints_.assign(int_ptr_, int_ptr_ + size_);
      break;
    case DataType::kString:
      codes_.assign(codes_ptr_, codes_ptr_ + size_);
      break;
    case DataType::kBool:
      bools_.assign(bool_ptr_, bool_ptr_ + size_);
      break;
    case DataType::kNull:
      break;
  }
  owner_.reset();
  SyncPointers();
}

uint32_t Column::Intern(std::string_view s) {
  constexpr uint32_t kEmptySlot = UINT32_MAX;
  // Linear probing: the slot holding `key`'s code, or the empty slot
  // where it belongs.
  auto slot_of = [&](std::string_view key) -> uint32_t& {
    const size_t mask = intern_slots_.size() - 1;
    size_t i = std::hash<std::string_view>{}(key) & mask;
    while (intern_slots_[i] != kEmptySlot && dict_[intern_slots_[i]] != key) {
      i = (i + 1) & mask;
    }
    return intern_slots_[i];
  };
  if (2 * (dict_.size() + 1) > intern_slots_.size()) {
    // (Re)build at twice the needed size, so growth rehashes amortize.
    intern_slots_.assign(std::bit_ceil(4 * (dict_.size() + 1)), kEmptySlot);
    for (uint32_t code = 0; code < dict_.size(); ++code) {
      slot_of(dict_[code]) = code;
    }
  }
  uint32_t& slot = slot_of(s);
  if (slot == kEmptySlot) {
    slot = static_cast<uint32_t>(dict_.size());
    dict_.emplace_back(s);
  }
  return slot;
}

void Column::AdoptValidity(size_t n, std::vector<uint8_t> valid) {
  MESA_CHECK(valid.empty() || valid.size() == n);
  if (valid.empty()) valid.assign(n, 1);
  valid_ = std::move(valid);
  size_ = n;
  null_count_ =
      static_cast<size_t>(std::count(valid_.begin(), valid_.end(), 0));
  SyncPointers();
}

Column Column::FromDoubles(std::vector<double> values,
                           std::vector<uint8_t> valid) {
  Column c(DataType::kDouble);
  c.doubles_ = std::move(values);
  c.AdoptValidity(c.doubles_.size(), std::move(valid));
  for (size_t i = 0; i < c.size_; ++i) {
    if (!std::isnan(c.doubles_[i])) continue;
    c.doubles_[i] = 0.0;
    if (c.valid_[i] != 0) {
      c.valid_[i] = 0;
      ++c.null_count_;
    }
  }
  return c;
}

Column Column::FromInts(std::vector<int64_t> values,
                        std::vector<uint8_t> valid) {
  Column c(DataType::kInt64);
  c.ints_ = std::move(values);
  c.AdoptValidity(c.ints_.size(), std::move(valid));
  return c;
}

Column Column::FromStrings(const std::vector<std::string>& values,
                           std::vector<uint8_t> valid) {
  Column c(DataType::kString);
  c.codes_.reserve(values.size());
  for (const std::string& s : values) c.codes_.push_back(c.Intern(s));
  c.AdoptValidity(values.size(), std::move(valid));
  return c;
}

Column Column::FromBools(std::vector<uint8_t> values,
                         std::vector<uint8_t> valid) {
  Column c(DataType::kBool);
  c.bools_ = std::move(values);
  c.AdoptValidity(c.bools_.size(), std::move(valid));
  return c;
}

Column Column::BorrowDoubles(const double* payload, const uint8_t* valid,
                             size_t n, size_t null_count,
                             std::shared_ptr<const void> owner) {
  MESA_CHECK(owner != nullptr);
  Column c(DataType::kDouble);
  c.size_ = n;
  c.null_count_ = null_count;
  c.valid_ptr_ = valid;
  c.double_ptr_ = payload;
  c.owner_ = std::move(owner);
  return c;
}

Column Column::BorrowInts(const int64_t* payload, const uint8_t* valid,
                          size_t n, size_t null_count,
                          std::shared_ptr<const void> owner) {
  MESA_CHECK(owner != nullptr);
  Column c(DataType::kInt64);
  c.size_ = n;
  c.null_count_ = null_count;
  c.valid_ptr_ = valid;
  c.int_ptr_ = payload;
  c.owner_ = std::move(owner);
  return c;
}

Column Column::BorrowBools(const uint8_t* payload, const uint8_t* valid,
                           size_t n, size_t null_count,
                           std::shared_ptr<const void> owner) {
  MESA_CHECK(owner != nullptr);
  Column c(DataType::kBool);
  c.size_ = n;
  c.null_count_ = null_count;
  c.valid_ptr_ = valid;
  c.bool_ptr_ = payload;
  c.owner_ = std::move(owner);
  return c;
}

Column Column::BorrowStringDict(std::vector<std::string> dict,
                                const uint32_t* codes, const uint8_t* valid,
                                size_t n, size_t null_count,
                                std::shared_ptr<const void> owner) {
  MESA_CHECK(owner != nullptr);
  Column c(DataType::kString);
  c.size_ = n;
  c.null_count_ = null_count;
  c.valid_ptr_ = valid;
  c.codes_ptr_ = codes;
  c.dict_ = std::move(dict);
  c.owner_ = std::move(owner);
  return c;
}

Status Column::Append(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kDouble:
      if (!value.is_numeric()) {
        return Status::InvalidArgument("expected numeric value for double column");
      }
      AppendDouble(value.AsDouble());
      return Status::OK();
    case DataType::kInt64:
      if (!value.is_int()) {
        return Status::InvalidArgument("expected int value for int64 column");
      }
      AppendInt(value.int_value());
      return Status::OK();
    case DataType::kString:
      if (!value.is_string()) {
        return Status::InvalidArgument("expected string value for string column");
      }
      AppendString(value.string_value());
      return Status::OK();
    case DataType::kBool:
      if (!value.is_bool()) {
        return Status::InvalidArgument("expected bool value for bool column");
      }
      AppendBool(value.bool_value());
      return Status::OK();
    case DataType::kNull:
      break;
  }
  return Status::Internal("corrupt column type");
}

void Column::AppendNull() {
  EnsureOwned();
  valid_.push_back(0);
  ++null_count_;
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kString:
      codes_.push_back(Intern(""));
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
    case DataType::kNull:
      break;
  }
  ++size_;
  SyncPointers();
}

void Column::AppendDouble(double v) {
  MESA_DCHECK(type_ == DataType::kDouble);
  if (std::isnan(v)) {
    AppendNull();
    return;
  }
  EnsureOwned();
  doubles_.push_back(v);
  valid_.push_back(1);
  ++size_;
  SyncPointers();
}

void Column::AppendInt(int64_t v) {
  MESA_DCHECK(type_ == DataType::kInt64);
  EnsureOwned();
  ints_.push_back(v);
  valid_.push_back(1);
  ++size_;
  SyncPointers();
}

void Column::AppendString(std::string_view v) {
  MESA_DCHECK(type_ == DataType::kString);
  EnsureOwned();
  codes_.push_back(Intern(v));
  valid_.push_back(1);
  ++size_;
  SyncPointers();
}

void Column::AppendBool(bool v) {
  MESA_DCHECK(type_ == DataType::kBool);
  EnsureOwned();
  bools_.push_back(v ? 1 : 0);
  valid_.push_back(1);
  ++size_;
  SyncPointers();
}

Value Column::GetValue(size_t row) const {
  MESA_DCHECK(row < size());
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kDouble:
      return Value::Double(double_ptr_[row]);
    case DataType::kInt64:
      return Value::Int(int_ptr_[row]);
    case DataType::kString:
      return Value::String(StringAt(row));
    case DataType::kBool:
      return Value::Bool(bool_ptr_[row] != 0);
    case DataType::kNull:
      break;
  }
  return Value::Null();
}

double Column::NumericAt(size_t row) const {
  MESA_DCHECK(IsValid(row));
  switch (type_) {
    case DataType::kDouble:
      return double_ptr_[row];
    case DataType::kInt64:
      return static_cast<double>(int_ptr_[row]);
    case DataType::kBool:
      return bool_ptr_[row] ? 1.0 : 0.0;
    default:
      MESA_CHECK(false && "NumericAt on string column");
  }
  return 0.0;
}

Status Column::Set(size_t row, const Value& value) {
  if (row >= size()) return Status::OutOfRange("row out of range");
  if (value.is_null() || (type_ == DataType::kDouble && value.is_double() &&
                           std::isnan(value.double_value()))) {
    SetNull(row);
    return Status::OK();
  }
  EnsureOwned();
  switch (type_) {
    case DataType::kDouble:
      if (!value.is_numeric()) {
        return Status::InvalidArgument("expected numeric value");
      }
      doubles_[row] = value.AsDouble();
      break;
    case DataType::kInt64:
      if (!value.is_int()) return Status::InvalidArgument("expected int value");
      ints_[row] = value.int_value();
      break;
    case DataType::kString:
      if (!value.is_string()) {
        return Status::InvalidArgument("expected string value");
      }
      codes_[row] = Intern(value.string_value());
      break;
    case DataType::kBool:
      if (!value.is_bool()) return Status::InvalidArgument("expected bool value");
      bools_[row] = value.bool_value() ? 1 : 0;
      break;
    case DataType::kNull:
      return Status::Internal("corrupt column type");
  }
  if (valid_[row] == 0) {
    valid_[row] = 1;
    --null_count_;
  }
  return Status::OK();
}

void Column::SetNull(size_t row) {
  MESA_DCHECK(row < size());
  EnsureOwned();
  if (valid_[row] != 0) {
    valid_[row] = 0;
    ++null_count_;
  }
}

uint64_t Column::ContentFingerprint() const {
  uint64_t h = MixSeed(static_cast<uint64_t>(type_), size());
  h = MixSeed(h, StableHash64Bytes(valid_ptr_, size_));
  switch (type_) {
    case DataType::kDouble:
      h = MixSeed(h, StableHash64Bytes(double_ptr_, size_ * sizeof(double)));
      break;
    case DataType::kInt64:
      h = MixSeed(h, StableHash64Bytes(int_ptr_, size_ * sizeof(int64_t)));
      break;
    case DataType::kString: {
      // Each entry hashed once, mixed per row in row order: a function of
      // content alone, not of dictionary order or storage mode.
      std::vector<uint64_t> entry_hash(dict_.size());
      for (size_t code = 0; code < dict_.size(); ++code) {
        entry_hash[code] =
            StableHash64Bytes(dict_[code].data(), dict_[code].size());
      }
      for (size_t row = 0; row < size_; ++row) {
        h = MixSeed(h, entry_hash[codes_ptr_[row]]);
      }
      break;
    }
    case DataType::kBool:
      h = MixSeed(h, StableHash64Bytes(bool_ptr_, size_));
      break;
    case DataType::kNull:
      break;
  }
  return h;
}

size_t Column::DistinctCountAtMost(size_t limit) const {
  if (type_ == DataType::kString) {
    std::vector<uint8_t> seen(dict_.size(), 0);
    size_t count = 0;
    for (size_t row = 0; row < size_ && count < limit; ++row) {
      if (valid_ptr_[row] != 0 && seen[codes_ptr_[row]] == 0) {
        seen[codes_ptr_[row]] = 1;
        ++count;
      }
    }
    return count;
  }
  std::unordered_set<Value, ValueHash> seen;
  for (size_t row = 0; row < size_ && seen.size() < limit; ++row) {
    if (IsValid(row)) seen.insert(GetValue(row));
  }
  return seen.size();
}

std::vector<uint32_t> Column::UsedCodes() const {
  MESA_DCHECK(type_ == DataType::kString);
  std::vector<uint8_t> used(dict_.size(), 0);
  for (size_t row = 0; row < size_; ++row) {
    if (valid_ptr_[row] != 0) used[codes_ptr_[row]] = 1;
  }
  std::vector<uint32_t> codes;
  for (uint32_t code = 0; code < used.size(); ++code) {
    if (used[code] != 0) codes.push_back(code);
  }
  return codes;
}

namespace {

// Fixed morsel for parallel Take: a constant (never a function of the
// thread count), though each chunk writes only its own disjoint output
// range, so the result would not depend on the chunking anyway.
constexpr size_t kTakeChunkRows = 4096;
constexpr size_t kTakeParallelThreshold = 4096;

// Gathers rows[lo, hi) into positions [lo, hi) of a presized output:
// valid rows set their validity byte and `copy(i, row)` their payload;
// null rows (and kNullRow entries) keep the zeroed byte and the default
// payload, exactly what AppendNull writes. Returns the number of nulls.
template <typename Copy>
size_t GatherRange(const std::vector<size_t>& rows, size_t lo, size_t hi,
                   const uint8_t* valid, uint8_t* out_valid, Copy copy) {
  size_t nulls = 0;
  for (size_t i = lo; i < hi; ++i) {
    const size_t row = rows[i];
    if (row == Column::kNullRow || valid[row] == 0) {
      ++nulls;
      continue;
    }
    out_valid[i] = 1;
    copy(i, row);
  }
  return nulls;
}

}  // namespace

Column Column::Take(const std::vector<size_t>& rows) const {
  const size_t n = rows.size();
  Column out(type_);
  out.valid_.resize(n);
  switch (type_) {
    case DataType::kDouble:
      out.doubles_.resize(n);
      break;
    case DataType::kInt64:
      out.ints_.resize(n);
      break;
    case DataType::kString: {
      // Gathered nulls code "" like AppendNull's; the copy gains "" only
      // if a null can be gathered (Intern indexes dict_ lazily).
      out.dict_ = dict_;
      const size_t empty = std::find(dict_.begin(), dict_.end(), "") -
                           dict_.begin();
      if (empty == dict_.size() &&
          (null_count_ > 0 ||
           std::find(rows.begin(), rows.end(), kNullRow) != rows.end())) {
        out.dict_.emplace_back();
      }
      out.codes_.assign(n, static_cast<uint32_t>(empty));
      break;
    }
    case DataType::kBool:
      out.bools_.resize(n);
      break;
    case DataType::kNull:
      break;
  }
  auto gather = [&](size_t lo, size_t hi) -> size_t {
    uint8_t* out_valid = out.valid_.data();
    switch (type_) {
      case DataType::kDouble:
        return GatherRange(rows, lo, hi, valid_ptr_, out_valid,
                           [&](size_t i, size_t row) {
                             out.doubles_[i] = double_ptr_[row];
                           });
      case DataType::kInt64:
        return GatherRange(rows, lo, hi, valid_ptr_, out_valid,
                           [&](size_t i, size_t row) {
                             out.ints_[i] = int_ptr_[row];
                           });
      case DataType::kString:
        return GatherRange(rows, lo, hi, valid_ptr_, out_valid,
                           [&](size_t i, size_t row) {
                             out.codes_[i] = codes_ptr_[row];
                           });
      case DataType::kBool:
        return GatherRange(rows, lo, hi, valid_ptr_, out_valid,
                           [&](size_t i, size_t row) {
                             out.bools_[i] = bool_ptr_[row] != 0 ? 1 : 0;
                           });
      case DataType::kNull:
        return GatherRange(rows, lo, hi, valid_ptr_, out_valid,
                           [](size_t, size_t) {});
    }
    return 0;
  };

  if (n < kTakeParallelThreshold) {
    out.null_count_ = gather(0, n);
  } else {
    // Morsel-parallel gather: fixed chunks, each writing its own disjoint
    // range of the presized output.
    const size_t num_chunks = (n + kTakeChunkRows - 1) / kTakeChunkRows;
    std::vector<size_t> nulls(num_chunks, 0);
    ParallelFor(0, num_chunks, [&](size_t c) {
      CancelCheckpoint();
      const size_t lo = c * kTakeChunkRows;
      nulls[c] = gather(lo, std::min(n, lo + kTakeChunkRows));
    });
    for (size_t count : nulls) out.null_count_ += count;
  }
  out.size_ = n;
  out.SyncPointers();
  return out;
}

}  // namespace mesa
