#include "serve/wire.h"

#include "common/types.h"

namespace raw {
namespace serve {

StatusOr<uint8_t> PayloadReader::U8() {
  uint8_t v;
  RAW_RETURN_NOT_OK(Bytes(&v, sizeof(v)));
  return v;
}

StatusOr<uint32_t> PayloadReader::U32() {
  uint32_t v;
  RAW_RETURN_NOT_OK(Bytes(&v, sizeof(v)));
  return v;
}

StatusOr<uint64_t> PayloadReader::U64() {
  uint64_t v;
  RAW_RETURN_NOT_OK(Bytes(&v, sizeof(v)));
  return v;
}

StatusOr<double> PayloadReader::F64() {
  double v;
  RAW_RETURN_NOT_OK(Bytes(&v, sizeof(v)));
  return v;
}

StatusOr<std::string> PayloadReader::String() {
  RAW_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (len > remaining()) {
    return Status::InvalidArgument("wire: string length exceeds payload");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Status PayloadReader::Bytes(void* out, size_t size) {
  if (size > remaining()) {
    return Status::InvalidArgument("wire: truncated payload");
  }
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
  return Status::OK();
}

void PayloadWriter::PutRaw(const void* data, size_t size) {
  if (size == 0) return;
  const size_t at = buf_.size();
  buf_.resize(at + size);
  std::memcpy(buf_.data() + at, data, size);
}

std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out(5 + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(out.data(), &len, 4);
  out[4] = static_cast<uint8_t>(type);
  if (!payload.empty()) {
    std::memcpy(out.data() + 5, payload.data(), payload.size());
  }
  return out;
}

void SerializeTable(const ColumnBatch& table, PayloadWriter* out) {
  out->PutU32(static_cast<uint32_t>(table.num_columns()));
  out->PutU64(static_cast<uint64_t>(table.num_rows()));
  for (int c = 0; c < table.num_columns(); ++c) {
    out->PutU8(static_cast<uint8_t>(table.schema().field(c).type));
    out->PutString(table.schema().field(c).name);
  }
  const int64_t rows = table.num_rows();
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = *table.column(c);
    if (IsFixedWidth(col.type())) {
      out->PutBytes(col.raw_data(),
                    static_cast<size_t>(rows) *
                        static_cast<size_t>(FixedWidth(col.type())));
    } else {
      for (int64_t i = 0; i < rows; ++i) out->PutString(col.StringValue(i));
    }
  }
}

StatusOr<ColumnBatch> DeserializeTable(PayloadReader* in) {
  RAW_ASSIGN_OR_RETURN(uint32_t num_cols, in->U32());
  RAW_ASSIGN_OR_RETURN(uint64_t num_rows, in->U64());
  if (num_cols > 4096) {
    return Status::InvalidArgument("wire: implausible column count");
  }
  Schema schema;
  for (uint32_t c = 0; c < num_cols; ++c) {
    RAW_ASSIGN_OR_RETURN(uint8_t type, in->U8());
    RAW_ASSIGN_OR_RETURN(std::string name, in->String());
    if (type >= kNumDataTypes) {
      return Status::InvalidArgument("wire: unknown column type");
    }
    schema.AddField(std::move(name), static_cast<DataType>(type));
  }
  ColumnBatch table(schema);
  for (uint32_t c = 0; c < num_cols; ++c) {
    const DataType type = schema.field(static_cast<int>(c)).type;
    auto col = std::make_shared<Column>(type);
    if (IsFixedWidth(type)) {
      const size_t bytes =
          static_cast<size_t>(num_rows) *
          static_cast<size_t>(FixedWidth(type));
      col->Resize(static_cast<int64_t>(num_rows));
      RAW_RETURN_NOT_OK(in->Bytes(col->raw_data(), bytes));
    } else {
      col->Reserve(static_cast<int64_t>(num_rows));
      for (uint64_t i = 0; i < num_rows; ++i) {
        RAW_ASSIGN_OR_RETURN(std::string v, in->String());
        col->AppendString(std::move(v));
      }
    }
    table.AddColumn(std::move(col));
  }
  table.SetNumRows(static_cast<int64_t>(num_rows));
  return table;
}

Status FrameAssembler::Feed(const uint8_t* data, size_t size) {
  // Compact lazily: drop fully consumed bytes before growing the buffer.
  if (consumed_ > 0 && consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10) && consumed_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
  // Early length validation so an insane header fails fast. Walk every
  // header already buffered, not just the first: when a valid frame and a
  // corrupt header arrive in one batch, the corrupt length would otherwise
  // stay hidden until after the frame is popped — and with no further bytes
  // coming, no later Feed would ever re-check it (the reader would block
  // forever waiting for a 4 GiB payload).
  size_t off = consumed_;
  while (buf_.size() - off >= 4) {
    uint32_t len;
    std::memcpy(&len, buf_.data() + off, 4);
    if (len > kMaxPayloadBytes) {
      return Status::InvalidArgument("wire: frame exceeds 64 MiB cap");
    }
    if (buf_.size() - off < 5u + len) break;
    off += 5u + len;
  }
  return Status::OK();
}

bool FrameAssembler::Pop(Frame* out) {
  const size_t avail = buf_.size() - consumed_;
  if (avail < 5) return false;
  uint32_t len;
  std::memcpy(&len, buf_.data() + consumed_, 4);
  if (avail < 5u + len) return false;
  out->type = static_cast<MessageType>(buf_[consumed_ + 4]);
  out->payload.assign(buf_.begin() + static_cast<ptrdiff_t>(consumed_ + 5),
                      buf_.begin() +
                          static_cast<ptrdiff_t>(consumed_ + 5 + len));
  consumed_ += 5u + len;
  return true;
}

}  // namespace serve
}  // namespace raw
