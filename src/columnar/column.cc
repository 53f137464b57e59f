#include "columnar/column.h"

namespace raw {

Column Column::Zeroed(DataType type, int64_t length) {
  Column col(type);
  col.Resize(length);
  return col;
}

void Column::AppendDatum(const Datum& d) {
  assert(d.type() == type_);
  switch (type_) {
    case DataType::kBool:
      Append<bool>(d.bool_value());
      break;
    case DataType::kInt32:
      Append<int32_t>(d.int32_value());
      break;
    case DataType::kInt64:
      Append<int64_t>(d.int64_value());
      break;
    case DataType::kFloat32:
      Append<float>(d.float32_value());
      break;
    case DataType::kFloat64:
      Append<double>(d.float64_value());
      break;
    case DataType::kString:
      AppendString(d.string_value());
      break;
  }
}

void Column::Resize(int64_t length) {
  if (type_ == DataType::kString) {
    strings_.resize(static_cast<size_t>(length));
  } else {
    data_.resize(static_cast<size_t>(length) *
                 static_cast<size_t>(FixedWidth(type_)));
  }
  if (!loaded_.empty()) {
    loaded_.resize(static_cast<size_t>((length + 7) / 8), 0);
  }
  length_ = length;
}

void Column::Reserve(int64_t capacity) {
  if (type_ == DataType::kString) {
    strings_.reserve(static_cast<size_t>(capacity));
  } else {
    data_.reserve(static_cast<size_t>(capacity) *
                  static_cast<size_t>(FixedWidth(type_)));
  }
}

Datum Column::GetDatum(int64_t i) const {
  switch (type_) {
    case DataType::kBool:
      return Datum::Bool(Value<bool>(i));
    case DataType::kInt32:
      return Datum::Int32(Value<int32_t>(i));
    case DataType::kInt64:
      return Datum::Int64(Value<int64_t>(i));
    case DataType::kFloat32:
      return Datum::Float32(Value<float>(i));
    case DataType::kFloat64:
      return Datum::Float64(Value<double>(i));
    case DataType::kString:
      return Datum::String(StringValue(i));
  }
  return Datum();
}

namespace {
template <typename IndexT>
Column GatherImpl(const Column& src, DataType type, const IndexT* indices,
                  int64_t count) {
  Column out(type);
  out.Reserve(count);
  if (type == DataType::kString) {
    for (int64_t i = 0; i < count; ++i) {
      out.AppendString(src.StringValue(indices[i]));
    }
    return out;
  }
  switch (type) {
    case DataType::kBool: {
      const bool* in = src.Data<bool>();
      for (int64_t i = 0; i < count; ++i) out.Append<bool>(in[indices[i]]);
      break;
    }
    case DataType::kInt32: {
      const int32_t* in = src.Data<int32_t>();
      for (int64_t i = 0; i < count; ++i) out.Append<int32_t>(in[indices[i]]);
      break;
    }
    case DataType::kInt64: {
      const int64_t* in = src.Data<int64_t>();
      for (int64_t i = 0; i < count; ++i) out.Append<int64_t>(in[indices[i]]);
      break;
    }
    case DataType::kFloat32: {
      const float* in = src.Data<float>();
      for (int64_t i = 0; i < count; ++i) out.Append<float>(in[indices[i]]);
      break;
    }
    case DataType::kFloat64: {
      const double* in = src.Data<double>();
      for (int64_t i = 0; i < count; ++i) out.Append<double>(in[indices[i]]);
      break;
    }
    default:
      break;
  }
  return out;
}
}  // namespace

Column Column::Gather(const int32_t* indices, int64_t count) const {
  return GatherImpl(*this, type_, indices, count);
}

Column Column::Gather(const int64_t* indices, int64_t count) const {
  return GatherImpl(*this, type_, indices, count);
}

Column Column::Slice(int64_t offset, int64_t length) const {
  Column out(type_);
  if (type_ == DataType::kString) {
    out.strings_.assign(strings_.begin() + offset,
                        strings_.begin() + offset + length);
  } else {
    const size_t width = static_cast<size_t>(FixedWidth(type_));
    out.data_.assign(data_.begin() + static_cast<size_t>(offset) * width,
                     data_.begin() +
                         static_cast<size_t>(offset + length) * width);
  }
  out.length_ = length;
  if (!loaded_.empty()) {
    out.MarkAllMissing();
    for (int64_t i = 0; i < length; ++i) {
      if (IsLoaded(offset + i)) out.SetLoaded(i);
    }
  }
  return out;
}

void Column::ShrinkToFit() {
  data_.shrink_to_fit();
  strings_.shrink_to_fit();
  loaded_.shrink_to_fit();
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::InvalidArgument("AppendColumn: type mismatch");
  }
  if (type_ == DataType::kString) {
    strings_.insert(strings_.end(), other.strings_.begin(),
                    other.strings_.end());
  } else {
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  }
  length_ += other.length_;
  return Status::OK();
}

void Column::MarkAllMissing() {
  loaded_.assign(static_cast<size_t>((length_ + 7) / 8), 0);
  if (loaded_.empty()) loaded_.push_back(0);  // length 0: keep bitmap mode
}

int64_t Column::CountLoaded() const {
  if (loaded_.empty()) return length_;
  int64_t count = 0;
  for (int64_t i = 0; i < length_; ++i) count += IsLoaded(i) ? 1 : 0;
  return count;
}

int64_t Column::MemoryBytes() const {
  if (type_ == DataType::kString) {
    int64_t total = 0;
    for (const auto& s : strings_) {
      total += static_cast<int64_t>(s.size() + sizeof(std::string));
    }
    return total;
  }
  return static_cast<int64_t>(data_.size());
}

bool Column::Equals(const Column& other) const {
  if (type_ != other.type_ || length_ != other.length_) return false;
  for (int64_t i = 0; i < length_; ++i) {
    bool a = IsLoaded(i), b = other.IsLoaded(i);
    if (a != b) return false;
    if (!a) continue;
    if (!(GetDatum(i) == other.GetDatum(i))) return false;
  }
  return true;
}

}  // namespace raw
