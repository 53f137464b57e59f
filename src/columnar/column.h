#ifndef RAW_COLUMNAR_COLUMN_H_
#define RAW_COLUMNAR_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/datum.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/types.h"

namespace raw {

/// A typed, densely packed column buffer — the engine's unit of loaded data.
///
/// Columns may be *partially loaded* (column shreds, §5 of the paper): when a
/// scan operator is pushed above a filter, only qualifying rows are fetched
/// and the rest are "marked as not loaded" (§6). A column therefore carries an
/// optional loaded-bitmap; an empty bitmap means fully loaded.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  /// Creates a fixed-width column with `length` zero-initialized slots.
  static Column Zeroed(DataType type, int64_t length);

  DataType type() const { return type_; }
  int64_t length() const { return length_; }

  /// Typed access to the packed buffer. T must match type().
  template <typename T>
  const T* Data() const {
    assert(TypeTag<T>::value == type_);
    return reinterpret_cast<const T*>(data_.data());
  }
  template <typename T>
  T* MutableData() {
    assert(TypeTag<T>::value == type_);
    return reinterpret_cast<T*>(data_.data());
  }

  template <typename T>
  T Value(int64_t i) const {
    return Data<T>()[i];
  }

  /// Untyped access to the fixed-width payload (JIT kernels write through
  /// this; callers guarantee the byte layout matches type()).
  uint8_t* raw_data() { return data_.data(); }
  const uint8_t* raw_data() const { return data_.data(); }

  const std::string& StringValue(int64_t i) const {
    return strings_[static_cast<size_t>(i)];
  }

  /// Appends one typed value (fixed-width types).
  template <typename T>
  void Append(T v) {
    assert(TypeTag<T>::value == type_);
    size_t old = data_.size();
    data_.resize(old + sizeof(T));
    std::memcpy(data_.data() + old, &v, sizeof(T));
    ++length_;
  }

  void AppendString(std::string v) {
    assert(type_ == DataType::kString);
    strings_.push_back(std::move(v));
    ++length_;
  }

  void AppendDatum(const Datum& d);

  /// Resizes to `length` slots (fixed-width: zero-fills growth).
  void Resize(int64_t length);

  void Reserve(int64_t capacity);

  /// Releases spare buffer capacity (e.g. before a column built by appends
  /// is kept for a long time).
  void ShrinkToFit();

  /// Returns element `i` boxed as a Datum.
  Datum GetDatum(int64_t i) const;

  /// Returns a new column with rows at `indices` (gather).
  Column Gather(const int32_t* indices, int64_t count) const;
  Column Gather(const int64_t* indices, int64_t count) const;

  /// Returns a new column holding rows [offset, offset + length).
  Column Slice(int64_t offset, int64_t length) const;

  /// Appends all rows of `other` (same type) to this column.
  Status AppendColumn(const Column& other);

  // --- loaded-bitmap (shred) support ---------------------------------------

  /// True when every slot holds a loaded value.
  bool fully_loaded() const { return loaded_.empty(); }

  /// Marks all current slots as not-loaded; subsequent SetLoaded() calls
  /// flip individual rows. Allocates the bitmap.
  void MarkAllMissing();

  void SetLoaded(int64_t i) {
    if (!loaded_.empty()) {
      loaded_[static_cast<size_t>(i >> 3)] |=
          static_cast<uint8_t>(1u << (i & 7));
    }
  }

  bool IsLoaded(int64_t i) const {
    if (loaded_.empty()) return true;
    return (loaded_[static_cast<size_t>(i >> 3)] >> (i & 7)) & 1;
  }

  /// Number of loaded rows.
  int64_t CountLoaded() const;

  /// Byte footprint of the value buffer (strings: sum of sizes).
  int64_t MemoryBytes() const;

  /// Deep equality on loaded values (tests).
  bool Equals(const Column& other) const;

 private:
  DataType type_;
  int64_t length_ = 0;
  std::vector<uint8_t> data_;          // fixed-width payload
  std::vector<std::string> strings_;   // kString payload
  std::vector<uint8_t> loaded_;        // bitmap; empty == all loaded
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace raw

#endif  // RAW_COLUMNAR_COLUMN_H_
