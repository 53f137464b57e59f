#include "common/datum.h"

#include "common/macros.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace raw {

StatusOr<double> Datum::AsDouble() const {
  switch (type_) {
    case DataType::kInt32:
      return static_cast<double>(int32_value());
    case DataType::kInt64:
      return static_cast<double>(int64_value());
    case DataType::kFloat32:
      return static_cast<double>(float32_value());
    case DataType::kFloat64:
      return float64_value();
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kString:
      return Status::InvalidArgument("cannot convert string datum to double");
  }
  return Status::Internal("corrupt datum type");
}

StatusOr<int64_t> Datum::AsInt64() const {
  switch (type_) {
    case DataType::kInt32:
      return static_cast<int64_t>(int32_value());
    case DataType::kInt64:
      return int64_value();
    case DataType::kFloat32:
      return static_cast<int64_t>(float32_value());
    case DataType::kFloat64:
      return static_cast<int64_t>(float64_value());
    case DataType::kBool:
      return bool_value() ? int64_t{1} : int64_t{0};
    case DataType::kString:
      return Status::InvalidArgument("cannot convert string datum to int64");
  }
  return Status::Internal("corrupt datum type");
}

StatusOr<Datum> Datum::CastTo(DataType target) const {
  if (target == type_) return *this;
  if (target == DataType::kString) return Datum::String(ToString());
  if (type_ == DataType::kString) {
    const std::string& s = string_value();
    switch (target) {
      case DataType::kInt32: {
        int32_t v = 0;
        auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (ec != std::errc() || p != s.data() + s.size()) {
          return Status::ParseError("cannot parse int32: '" + s + "'");
        }
        return Datum::Int32(v);
      }
      case DataType::kInt64: {
        int64_t v = 0;
        auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (ec != std::errc() || p != s.data() + s.size()) {
          return Status::ParseError("cannot parse int64: '" + s + "'");
        }
        return Datum::Int64(v);
      }
      case DataType::kFloat32:
      case DataType::kFloat64: {
        double v = 0;
        auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (ec != std::errc() || p != s.data() + s.size()) {
          return Status::ParseError("cannot parse float: '" + s + "'");
        }
        return target == DataType::kFloat32
                   ? Datum::Float32(static_cast<float>(v))
                   : Datum::Float64(v);
      }
      case DataType::kBool:
        if (s == "true" || s == "1") return Datum::Bool(true);
        if (s == "false" || s == "0") return Datum::Bool(false);
        return Status::ParseError("cannot parse bool: '" + s + "'");
      default:
        break;
    }
    return Status::InvalidArgument("unsupported string cast");
  }
  // Numeric <-> numeric via double (bool included).
  RAW_ASSIGN_OR_RETURN(double d, AsDouble());
  switch (target) {
    case DataType::kBool:
      return Datum::Bool(d != 0.0);
    case DataType::kInt32:
      return Datum::Int32(static_cast<int32_t>(d));
    case DataType::kInt64:
      return Datum::Int64(static_cast<int64_t>(d));
    case DataType::kFloat32:
      return Datum::Float32(static_cast<float>(d));
    case DataType::kFloat64:
      return Datum::Float64(d);
    default:
      return Status::InvalidArgument("unsupported numeric cast");
  }
}

std::string Datum::ToString() const {
  char buf[64];
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt32:
      snprintf(buf, sizeof(buf), "%d", int32_value());
      return buf;
    case DataType::kInt64:
      snprintf(buf, sizeof(buf), "%lld",
               static_cast<long long>(int64_value()));
      return buf;
    case DataType::kFloat32:
      snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(float32_value()));
      return buf;
    case DataType::kFloat64:
      snprintf(buf, sizeof(buf), "%.17g", float64_value());
      return buf;
    case DataType::kString:
      return string_value();
  }
  return "<corrupt>";
}

StatusOr<Datum> CoerceLiteral(const Datum& value, DataType column_type) {
  if (value.type() == column_type) return value;
  const bool int32 = column_type == DataType::kInt32;
  if ((!int32 && column_type != DataType::kInt64) ||
      value.type() == DataType::kString) {
    return value.CastTo(column_type);
  }
  if (value.type() != DataType::kFloat32 &&
      value.type() != DataType::kFloat64) {
    RAW_ASSIGN_OR_RETURN(int64_t v, value.AsInt64());
    if (!int32) return Datum::Int64(v);
    if (v < INT32_MIN || v > INT32_MAX) return value;
    return Datum::Int32(static_cast<int32_t>(v));
  }
  RAW_ASSIGN_OR_RETURN(double d, value.AsDouble());
  // [lo, hi) is the column type's range; NaN fails both comparisons.
  const double lo = int32 ? -2147483648.0 : -9223372036854775808.0;
  const double hi = int32 ? 2147483648.0 : 9223372036854775808.0;
  if (!(d >= lo && d < hi) || std::trunc(d) != d) return value;
  return int32 ? Datum::Int32(static_cast<int32_t>(d))
               : Datum::Int64(static_cast<int64_t>(d));
}

std::ostream& operator<<(std::ostream& os, const Datum& d) {
  return os << d.ToString();
}

}  // namespace raw
