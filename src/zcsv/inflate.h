#ifndef RAW_ZCSV_INFLATE_H_
#define RAW_ZCSV_INFLATE_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string_view>

#include "common/status.h"

namespace raw {

/// The byte buffer a gzip member decodes into: one heap block reused from
/// member to member. Growing keeps the bytes already written, and nothing is
/// zero-filled, so a scan pays for the allocation once, not per member.
class InflateBuffer {
 public:
  const char* data() const { return bytes_.get(); }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  std::string_view view() const { return {data(), size_}; }

  /// Raises the capacity to at least `capacity` bytes, keeping the first
  /// `capacity()` bytes; never shrinks.
  Status Reserve(size_t capacity);
  char* mutable_data() { return bytes_.get(); }
  void set_size(size_t size) { size_ = size; }

 private:
  struct Free {
    void operator()(char* p) const { std::free(p); }
  };
  std::unique_ptr<char, Free> bytes_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// Decodes the gzip member (RFC 1952 around an RFC 1951 deflate stream) at
/// the start of `data`, which holds `size` bytes and may go on into further
/// members. The decoded bytes replace `out`'s contents, and `*consumed` is
/// set to the member's exact compressed size.
///
/// `expected_size`, when given, is the size a block index recorded for the
/// member: the buffer is sized for it once, and a member that decodes to any
/// other size is DataCorruption (the index has gone stale). Without it the
/// buffer grows geometrically and keeps its capacity for the next member.
///
/// The header's flags (FTEXT, FEXTRA, FNAME, FCOMMENT, FHCRC, with the header
/// CRC checked), stored, fixed and dynamic blocks, and the trailer's CRC32
/// and ISIZE are all handled. Every malformed or truncated input is
/// DataCorruption; the decoder reads nothing outside `[data, data + size)`.
Status GunzipMember(const char* data, size_t size, InflateBuffer* out,
                    size_t* consumed,
                    std::optional<size_t> expected_size = std::nullopt);

}  // namespace raw

#endif  // RAW_ZCSV_INFLATE_H_
