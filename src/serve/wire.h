#ifndef RAW_SERVE_WIRE_H_
#define RAW_SERVE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"

namespace raw {
namespace serve {

/// rawd wire protocol: every message is one length-framed unit
///
///   [u32 payload_len][u8 type][payload bytes...]
///
/// with all integers little-endian and payload_len counting only the payload
/// (not the 5-byte header). Payloads are capped at kMaxPayloadBytes so a
/// corrupt or hostile peer cannot make the server buffer unboundedly.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;  // 64 MiB

enum class MessageType : uint8_t {
  // Requests (client -> server).
  kHello = 1,     // u8 priority class; must be the first message
  kQuery = 2,     // u64 request_id, u32 deadline_ms (0 = none), u32 len, sql
  kGoodbye = 3,   // empty; server flushes and closes after kGoodbyeOk
  kStats = 4,     // empty; served inline (no admission queue)
  // Responses (server -> client).
  kHelloOk = 128,     // empty
  kResult = 129,      // u64 request_id, f64 plan_s, f64 exec_s, table
  kError = 130,       // u64 request_id, u32 status code, u32 len, message
  kOverloaded = 131,  // u64 request_id, u32 len, reason — typed fast-fail
  kGoodbyeOk = 132,   // empty
  kStatsResult = 133,  // u32 len, EngineStats snapshot as JSON text
};

/// Client priority classes; the admission controller gives kInteractive
/// strict dequeue priority and separate quota limits.
enum class PriorityClass : uint8_t {
  kInteractive = 0,
  kBatch = 1,
};

/// One decoded frame (type + raw payload).
struct Frame {
  MessageType type;
  std::vector<uint8_t> payload;
};

/// Little-endian append-only payload builder.
class PayloadWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutBytes(const void* data, size_t size) { PutRaw(data, size); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void PutRaw(const void* data, size_t size);
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<uint8_t>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  StatusOr<uint8_t> U8();
  StatusOr<uint32_t> U32();
  StatusOr<uint64_t> U64();
  StatusOr<double> F64();
  StatusOr<std::string> String();  // u32 length prefix + bytes
  Status Bytes(void* out, size_t size);
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Encodes a complete frame (header + payload) ready to write to a socket.
std::vector<uint8_t> EncodeFrame(MessageType type,
                                 const std::vector<uint8_t>& payload);

/// Serializes a materialized result table: schema, then column-major data
/// (fixed-width columns as raw buffers, strings length-prefixed per value).
void SerializeTable(const ColumnBatch& table, PayloadWriter* out);

/// Inverse of SerializeTable.
StatusOr<ColumnBatch> DeserializeTable(PayloadReader* in);

/// Incremental frame assembler for a nonblocking byte stream. Feed it
/// whatever bytes arrived; it yields complete frames and enforces the
/// payload cap.
class FrameAssembler {
 public:
  /// Appends raw bytes from the stream.
  Status Feed(const uint8_t* data, size_t size);

  /// Pops the next complete frame into `out`. Returns false when more bytes
  /// are needed.
  bool Pop(Frame* out);

  /// True while a frame is partially buffered — the peer closing now means
  /// the stream was cut mid-frame (a protocol error), not a clean EOF.
  bool has_partial_frame() const { return buf_.size() > consumed_; }

 private:
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;  // bytes of buf_ already popped
};

}  // namespace serve
}  // namespace raw

#endif  // RAW_SERVE_WIRE_H_
