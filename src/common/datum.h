#ifndef RAW_COMMON_DATUM_H_
#define RAW_COMMON_DATUM_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"
#include "common/statusor.h"
#include "common/types.h"

namespace raw {

/// A single typed scalar value — the engine's "loaded data" unit. Used for
/// literals in query plans and for scalar query results.
class Datum {
 public:
  Datum() : type_(DataType::kInt32), value_(int32_t{0}) {}
  static Datum Bool(bool v) { return Datum(DataType::kBool, v); }
  static Datum Int32(int32_t v) { return Datum(DataType::kInt32, v); }
  static Datum Int64(int64_t v) { return Datum(DataType::kInt64, v); }
  static Datum Float32(float v) { return Datum(DataType::kFloat32, v); }
  static Datum Float64(double v) { return Datum(DataType::kFloat64, v); }
  static Datum String(std::string v) {
    return Datum(DataType::kString, std::move(v));
  }

  DataType type() const { return type_; }

  bool bool_value() const { return std::get<bool>(value_); }
  int32_t int32_value() const { return std::get<int32_t>(value_); }
  int64_t int64_value() const { return std::get<int64_t>(value_); }
  float float32_value() const { return std::get<float>(value_); }
  double float64_value() const { return std::get<double>(value_); }
  const std::string& string_value() const {
    return std::get<std::string>(value_);
  }

  /// Numeric value widened to double (error for strings/bools).
  StatusOr<double> AsDouble() const;

  /// Numeric value narrowed/converted to int64 (error for strings).
  StatusOr<int64_t> AsInt64() const;

  /// Returns a copy converted to `target` (numeric widening/narrowing, or
  /// string formatting/parsing).
  StatusOr<Datum> CastTo(DataType target) const;

  /// Formats for display; floats use round-trippable precision.
  std::string ToString() const;

  bool operator==(const Datum& other) const {
    return type_ == other.type_ && value_ == other.value_;
  }

 private:
  template <typename T>
  Datum(DataType type, T v) : type_(type), value_(std::move(v)) {}

  DataType type_;
  std::variant<bool, int32_t, int64_t, float, double, std::string> value_;
};

std::ostream& operator<<(std::ostream& os, const Datum& d);

/// The one literal-coercion rule: `value` as it compares against a
/// `column_type` column. The result has the column's type when the
/// conversion is exact: an integer column takes integral values in its
/// range, a floating-point column any number (rounded to the column's
/// precision, like its own values), a string column any literal's text, and
/// a numeric column a string that parses. A number an integer column cannot
/// hold exactly (2.5 or 5e9 against int32) keeps its own type, and callers
/// compare it widened to double instead of truncating it.
StatusOr<Datum> CoerceLiteral(const Datum& value, DataType column_type);

}  // namespace raw

#endif  // RAW_COMMON_DATUM_H_
