#ifndef MESA_TABLE_COLUMN_H_
#define MESA_TABLE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace mesa {

/// A typed column with a validity (non-null) bitmap. Storage is columnar:
/// one contiguous run of the physical type plus a parallel validity run.
/// Null slots hold a default payload that must never be read.
///
/// A double column never holds a valid NaN: `FromDoubles`, `AppendDouble`
/// and `Set` store one as null, as the CSV reader does.
///
/// A string column's payload is a `uint32_t` code run into a dictionary
/// that holds each distinct string once (entries never repeat). Null rows
/// appended or gathered code ""; `SetNull` keeps the row's old code.
///
/// The runs are either **owned** (member vectors) or **borrowed**: `const`
/// pointers into memory kept alive by an opaque `owner` handle, in
/// practice a snapshot's mmap'd file (`src/snapshot/reader.h`); the
/// dictionary is always owned. Every read accessor behaves identically in
/// both modes. Mutating a borrowed column (Append / Set / SetNull) first
/// detaches it by copying its runs into owned vectors, so snapshot-backed
/// tables stay safe under the missing-data machinery's in-place edits.
/// Only mutators intern strings, so concurrent readers touch no lazy state.
class Column {
 public:
  /// Creates an empty column of the given type. kNull-typed columns are not
  /// allowed; pick a concrete type.
  explicit Column(DataType type);

  Column(const Column& other);
  Column& operator=(const Column& other);
  Column(Column&& other) noexcept;
  Column& operator=(Column&& other) noexcept;

  /// Factories from dense data. `valid` holds one 1/0 byte per value;
  /// empty means all valid. A null slot must hold the default payload
  /// (0, "" or false), as AppendNull leaves it, so the column is
  /// byte-identical to one built by appends.
  static Column FromDoubles(std::vector<double> values,
                            std::vector<uint8_t> valid = {});
  static Column FromInts(std::vector<int64_t> values,
                         std::vector<uint8_t> valid = {});
  static Column FromStrings(const std::vector<std::string>& values,
                            std::vector<uint8_t> valid = {});
  static Column FromBools(std::vector<uint8_t> values,
                          std::vector<uint8_t> valid = {});

  /// Zero-copy factories: the column reads through `payload` / `valid`
  /// (length `n` each) without copying; `owner` keeps the backing memory
  /// alive for the column's lifetime (and the lifetime of its copies).
  /// `null_count` must equal the number of zero bytes in `valid`.
  static Column BorrowDoubles(const double* payload, const uint8_t* valid,
                              size_t n, size_t null_count,
                              std::shared_ptr<const void> owner);
  static Column BorrowInts(const int64_t* payload, const uint8_t* valid,
                           size_t n, size_t null_count,
                           std::shared_ptr<const void> owner);
  static Column BorrowBools(const uint8_t* payload, const uint8_t* valid,
                            size_t n, size_t null_count,
                            std::shared_ptr<const void> owner);
  /// Zero-copy string column: row i reads `dict[codes[i]]`. Every code
  /// must be < dict.size() and no entry may repeat (the snapshot reader
  /// validates both before borrowing). Null rows must code the empty
  /// string so content fingerprints match an owned equivalent.
  static Column BorrowStringDict(std::vector<std::string> dict,
                                 const uint32_t* codes, const uint8_t* valid,
                                 size_t n, size_t null_count,
                                 std::shared_ptr<const void> owner);

  DataType type() const { return type_; }
  size_t size() const { return size_; }

  /// True when the column reads through borrowed (snapshot-backed) memory.
  bool is_borrowed() const { return owner_ != nullptr; }

  bool IsNull(size_t row) const { return valid_ptr_[row] == 0; }
  bool IsValid(size_t row) const { return valid_ptr_[row] != 0; }

  /// Number of null entries.
  size_t null_count() const { return null_count_; }

  /// Fraction of null entries (0 for an empty column).
  double null_fraction() const {
    return size() == 0 ? 0.0 : static_cast<double>(null_count_) / size();
  }

  /// Appends a (typed) value. Appending a Value of mismatched type fails;
  /// ints are accepted into double columns.
  Status Append(const Value& value);

  /// Appends a null entry.
  void AppendNull();

  /// Typed appends (no per-call type dispatch).
  void AppendDouble(double v);
  void AppendInt(int64_t v);
  void AppendString(std::string_view v);
  void AppendBool(bool v);

  /// Reads a cell as a dynamically typed Value (Null if invalid).
  Value GetValue(size_t row) const;

  /// Typed readers. Caller must ensure the row is valid and the type
  /// matches (checked in debug builds).
  double DoubleAt(size_t row) const { return double_ptr_[row]; }
  int64_t IntAt(size_t row) const { return int_ptr_[row]; }
  const std::string& StringAt(size_t row) const {
    return dict_[codes_ptr_[row]];
  }
  bool BoolAt(size_t row) const { return bool_ptr_[row] != 0; }

  /// Numeric payload of a valid cell as double (bools -> 0/1). Fails on
  /// string columns.
  double NumericAt(size_t row) const;

  /// Sets an existing slot (used by imputation). Type rules as Append.
  Status Set(size_t row, const Value& value);

  /// Marks an existing slot null (used by missing-data injection).
  void SetNull(size_t row);

  /// A `Take` row index that gathers a null (e.g. an unmatched join row).
  static constexpr size_t kNullRow = static_cast<size_t>(-1);

  /// Gathers the given rows into a new (owned) column, presized once.
  /// Strings gather codes, never per-row strings. Large gathers run
  /// morsel-parallel over fixed row chunks that each fill a disjoint
  /// output range — byte-identical to the serial gather (and to per-row
  /// appends) at any thread count.
  Column Take(const std::vector<size_t>& rows) const;

  /// min(distinct values among valid rows, `limit`), with numeric
  /// equality as `Value` (-0.0 == 0.0). The scan stops as soon as `limit`
  /// distinct values have been seen.
  size_t DistinctCountAtMost(size_t limit) const;
  /// String columns: the codes valid rows use, each once, ascending.
  std::vector<uint32_t> UsedCodes() const;

  /// Stable 64-bit hash of the column's content: type, length, validity
  /// bitmap, and payload. Columns with equal fingerprints are treated as
  /// interchangeable by content-addressed caches (discretizer memo). Dead
  /// payload bytes under null slots are hashed too, so a Set-then-SetNull
  /// column may fingerprint differently from a freshly built equal one —
  /// that only costs a cache miss, never a false hit. (Snapshot writers
  /// canonicalize dead payloads to the default value, so a snapshot
  /// round trip of an unmutated column preserves the fingerprint.)
  uint64_t ContentFingerprint() const;

  /// Direct storage access for tight loops and serializers. Valid in both
  /// storage modes; pointers are invalidated by any mutation.
  const double* double_data() const { return double_ptr_; }
  const int64_t* int_data() const { return int_ptr_; }
  const uint8_t* bool_data() const { return bool_ptr_; }
  const uint32_t* code_data() const { return codes_ptr_; }
  const std::vector<std::string>& dictionary() const { return dict_; }
  const uint8_t* validity_data() const { return valid_ptr_; }

 private:
  /// Points the read-through pointers at the owned vectors (owned mode
  /// only; borrowed pointers are set by the Borrow factories).
  void SyncPointers();

  /// Shared tail of the From* factories: installs `valid` (all valid when
  /// empty) for the `n` payload values already moved in.
  void AdoptValidity(size_t n, std::vector<uint8_t> valid);

  /// Copies borrowed runs into owned vectors and drops the owner handle.
  /// No-op in owned mode. Called by every mutator.
  void EnsureOwned();

  /// Code of `s` in the dictionary, appended if absent. Mutators only.
  uint32_t Intern(std::string_view s);

  DataType type_;
  size_t size_ = 0;
  size_t null_count_ = 0;

  /// Read-through pointers: either into the owned vectors below or into
  /// borrowed memory held alive by owner_.
  const uint8_t* valid_ptr_ = nullptr;
  const double* double_ptr_ = nullptr;
  const int64_t* int_ptr_ = nullptr;
  const uint8_t* bool_ptr_ = nullptr;
  const uint32_t* codes_ptr_ = nullptr;

  /// String dictionary: rows read dict_[codes_ptr_[row]].
  std::vector<std::string> dict_;
  /// Intern's open-addressing table of dict_ codes (UINT32_MAX = empty),
  /// at most half full; built lazily and never copied.
  std::vector<uint32_t> intern_slots_;

  /// Keeps borrowed memory alive (e.g. a snapshot mapping); null in owned
  /// mode.
  std::shared_ptr<const void> owner_;

  /// Owned storage; exactly one payload vector is populated, according to
  /// type_, and only in owned mode.
  std::vector<uint8_t> valid_;
  std::vector<double> doubles_;
  std::vector<int64_t> ints_;
  std::vector<uint32_t> codes_;
  std::vector<uint8_t> bools_;
};

}  // namespace mesa

#endif  // MESA_TABLE_COLUMN_H_
