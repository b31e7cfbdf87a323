#include "table/column.h"

#include <algorithm>

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
      strings_(other.strings_),
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
      owner_(std::move(other.owner_)),
      valid_(std::move(other.valid_)),
      doubles_(std::move(other.doubles_)),
      ints_(std::move(other.ints_)),
      strings_(std::move(other.strings_)),
      bools_(std::move(other.bools_)) {
  // Vector moves transfer the heap buffer, so owned pointers stay valid;
  // re-sync anyway to keep the invariant obvious and the moved-from
  // column consistent (empty).
  if (owner_ == nullptr) SyncPointers();
  other.size_ = 0;
  other.null_count_ = 0;
  other.codes_ptr_ = nullptr;
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
  owner_ = std::move(other.owner_);
  valid_ = std::move(other.valid_);
  doubles_ = std::move(other.doubles_);
  ints_ = std::move(other.ints_);
  strings_ = std::move(other.strings_);
  bools_ = std::move(other.bools_);
  if (owner_ == nullptr) SyncPointers();
  other.size_ = 0;
  other.null_count_ = 0;
  other.codes_ptr_ = nullptr;
  other.SyncPointers();
  return *this;
}

void Column::SyncPointers() {
  valid_ptr_ = valid_.data();
  double_ptr_ = doubles_.data();
  int_ptr_ = ints_.data();
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
      strings_.reserve(size_);
      for (size_t row = 0; row < size_; ++row) {
        strings_.push_back(dict_[codes_ptr_[row]]);
      }
      dict_.clear();
      break;
    case DataType::kBool:
      bools_.assign(bool_ptr_, bool_ptr_ + size_);
      break;
    case DataType::kNull:
      break;
  }
  codes_ptr_ = nullptr;
  owner_.reset();
  SyncPointers();
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
  return c;
}

Column Column::FromInts(std::vector<int64_t> values,
                        std::vector<uint8_t> valid) {
  Column c(DataType::kInt64);
  c.ints_ = std::move(values);
  c.AdoptValidity(c.ints_.size(), std::move(valid));
  return c;
}

Column Column::FromStrings(std::vector<std::string> values,
                           std::vector<uint8_t> valid) {
  Column c(DataType::kString);
  c.strings_ = std::move(values);
  c.AdoptValidity(c.strings_.size(), std::move(valid));
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
      strings_.emplace_back();
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

void Column::AppendString(std::string v) {
  MESA_DCHECK(type_ == DataType::kString);
  EnsureOwned();
  strings_.push_back(std::move(v));
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
  if (value.is_null()) {
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
      strings_[row] = value.string_value();
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
    case DataType::kString:
      // Hash row strings in row order, dictionary-encoded or not, so the
      // fingerprint is a function of content alone, not storage mode.
      for (size_t row = 0; row < size_; ++row) {
        const std::string& s = StringAt(row);
        h = MixSeed(h, StableHash64Bytes(s.data(), s.size()));
      }
      break;
    case DataType::kBool:
      h = MixSeed(h, StableHash64Bytes(bool_ptr_, size_));
      break;
    case DataType::kNull:
      break;
  }
  return h;
}

void Column::AppendFrom(const Column& src) {
  MESA_CHECK(src.type_ == type_);
  MESA_DCHECK(&src != this);
  EnsureOwned();
  const size_t n = src.size_;
  valid_.insert(valid_.end(), src.valid_ptr_, src.valid_ptr_ + n);
  switch (type_) {
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), src.double_ptr_, src.double_ptr_ + n);
      break;
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.int_ptr_, src.int_ptr_ + n);
      break;
    case DataType::kString:
      if (src.codes_ptr_ == nullptr) {
        strings_.insert(strings_.end(), src.strings_.begin(),
                        src.strings_.end());
      } else {
        // Dictionary-encoded source: materialize per row. Null rows code
        // the empty string, matching AppendNull's dead payload.
        strings_.reserve(strings_.size() + n);
        for (size_t r = 0; r < n; ++r) strings_.push_back(src.StringAt(r));
      }
      break;
    case DataType::kBool:
      bools_.insert(bools_.end(), src.bool_ptr_, src.bool_ptr_ + n);
      break;
    case DataType::kNull:
      break;
  }
  null_count_ += src.null_count_;
  size_ += n;
  SyncPointers();
}

namespace {

// Fixed morsel for parallel Take: a constant (never a function of the
// thread count), though each chunk writes only its own disjoint output
// range, so the result would not depend on the chunking anyway.
constexpr size_t kTakeChunkRows = 4096;
constexpr size_t kTakeParallelThreshold = 4096;

// Gathers rows[lo, hi) into positions [lo, hi) of a presized output:
// valid rows set their validity byte and `copy(i, row)` their payload;
// null rows keep the zeroed byte and the default payload, exactly what
// AppendNull writes. Returns the number of nulls seen.
template <typename Copy>
size_t GatherRange(const std::vector<size_t>& rows, size_t lo, size_t hi,
                   const uint8_t* valid, uint8_t* out_valid, Copy copy) {
  size_t nulls = 0;
  for (size_t i = lo; i < hi; ++i) {
    const size_t row = rows[i];
    if (valid[row] == 0) {
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
    case DataType::kString:
      out.strings_.resize(n);
      break;
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
                             out.strings_[i] = StringAt(row);
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
