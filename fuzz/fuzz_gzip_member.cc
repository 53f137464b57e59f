// Fuzz target: the gzip member decoder, differential against zlib's inflate.
//
// On every input both decoders must agree on whether the member is OK, on
// the bytes it decodes to and on `consumed`; a failure of ours must be
// DataCorruption. Four attack surfaces per input:
//   1. the raw bytes as a gzip member — header/deflate/trailer parsing of
//      arbitrary garbage;
//   2. the bytes as a deflate stream behind a valid gzip header, so random
//      inputs reach block headers, code-length sets and matches;
//   3. a valid member compressed from the input, truncated at a cut point
//      derived from the input — every cut (header, deflate data, the CRC32/
//      ISIZE trailer) must fail;
//   4. the same member with one bit flipped — a clean success must
//      reproduce the original bytes exactly.

#include <zlib.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "zcsv/gzip_block.h"
#include "zcsv/inflate.h"

namespace {

constexpr size_t kMaxInput = 1 << 15;

struct Decoded {
  bool ok = false;
  std::string bytes;
  size_t consumed = 0;
};

Decoded Zlib(std::string_view member) {
  Decoded d;
  z_stream zs{};
  if (inflateInit2(&zs, 16 + MAX_WBITS) != Z_OK) __builtin_trap();
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(member.data()));
  zs.avail_in = static_cast<uInt>(member.size());
  char chunk[16 * 1024];
  int rc = Z_OK;
  while (rc == Z_OK) {
    zs.next_out = reinterpret_cast<Bytef*>(chunk);
    zs.avail_out = sizeof(chunk);
    const uLong in_before = zs.total_in;
    const uLong out_before = zs.total_out;
    rc = inflate(&zs, Z_NO_FLUSH);
    d.bytes.append(chunk, sizeof(chunk) - zs.avail_out);
    if (rc == Z_OK && zs.total_in == in_before && zs.total_out == out_before) {
      break;  // no progress: the input ended mid-member
    }
  }
  d.ok = rc == Z_STREAM_END;
  d.consumed = member.size() - zs.avail_in;
  inflateEnd(&zs);
  return d;
}

Decoded Ours(std::string_view member) {
  Decoded d;
  raw::InflateBuffer out;
  // An exactly sized copy, so the sanitizers catch any read past it.
  std::unique_ptr<char[]> exact(new char[member.size()]);
  if (!member.empty()) std::memcpy(exact.get(), member.data(), member.size());
  const raw::Status st =
      raw::GunzipMember(exact.get(), member.size(), &out, &d.consumed);
  d.ok = st.ok();
  if (st.ok()) {
    d.bytes.assign(out.view());
  } else if (st.code() != raw::StatusCode::kDataCorruption) {
    __builtin_trap();
  }
  return d;
}

/// Decodes `member` both ways and traps on any disagreement.
Decoded Agree(std::string_view member) {
  const Decoded ref = Zlib(member);
  const Decoded ours = Ours(member);
  if (ours.ok != ref.ok) __builtin_trap();
  if (ours.ok) {
    if (ours.bytes != ref.bytes || ours.consumed != ref.consumed) {
      __builtin_trap();
    }
    if (ours.consumed > member.size()) __builtin_trap();
  }
  return ours;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) size = kMaxInput;
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // 1. Arbitrary bytes straight into both decoders.
  Agree(bytes);

  // 2. The bytes as the deflate stream of a member with a plain header.
  {
    std::string member("\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff", 10);
    member.append(bytes);
    Agree(member);
  }
  if (size == 0) return 0;

  // 3. Round-trip, then cut mid-member at an input-derived offset.
  std::string member;
  if (!raw::GzipCompressMember(bytes, &member).ok()) return 0;
  {
    const size_t cut = data[size - 1] % (member.size() + 1);
    const Decoded d = Agree(std::string_view(member.data(), cut));
    // A truncated member must never decode as a clean success.
    if (cut < member.size() && d.ok) __builtin_trap();
    if (cut == member.size() && (!d.ok || d.bytes != bytes)) __builtin_trap();
  }

  // 4. Flip one bit: either decoding fails or it reproduces the input.
  {
    std::string flipped = member;
    flipped[data[0] % flipped.size()] ^= static_cast<char>(1 << (data[0] & 7));
    const Decoded d = Agree(flipped);
    if (d.ok && d.bytes != bytes) __builtin_trap();
  }
  return 0;
}
