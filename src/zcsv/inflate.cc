#include "zcsv/inflate.h"

#include <zlib.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/macros.h"

namespace raw {

Status InflateBuffer::Reserve(size_t capacity) {
  if (capacity <= capacity_) return Status::OK();
  void* grown = std::realloc(bytes_.get(), capacity);
  if (grown == nullptr) {
    return Status::ResourceExhausted("cannot grow the gzip decode buffer to " +
                                     std::to_string(capacity) + " bytes");
  }
  (void)bytes_.release();
  bytes_.reset(static_cast<char*>(grown));
  capacity_ = capacity;
  return Status::OK();
}

namespace {

// --- Decode tables -----------------------------------------------------------
//
// One 32-bit entry resolves a Huffman code in one lookup:
//   bits 0-7    bits to consume: the code's length plus the symbol's extra
//               bits (a subtable pointer: the main table's index bits)
//   bits 8-11   the code's length (a subtable pointer: the subtable's index
//               bits), so the extra bits are (bits & mask(0-7)) >> (8-11)
//   bits 12-15  flags
//   bits 16-31  a literal byte, a length or distance base, a code-length
//               symbol, or a subtable's offset within the table
//
// Codes longer than the main table's index bits continue in a subtable whose
// size covers the rest of the subtree under their prefix (zlib's two-level
// layout). A table with `b` main bits over `n` symbols never needs more than
// 2^b + n * 2^(15 - b) entries: each subtable holds at least one symbol and
// at most 2^(15 - b) entries.

constexpr uint32_t kLiteral = 1u << 12;
constexpr uint32_t kSubtable = 1u << 13;
constexpr uint32_t kEndOfBlock = 1u << 14;
constexpr uint32_t kInvalid = 1u << 15;

inline uint32_t EntryBits(uint32_t e) { return e & 0xff; }
inline uint32_t EntryCodeLen(uint32_t e) { return (e >> 8) & 0xf; }
inline uint32_t EntryValue(uint32_t e) { return e >> 16; }
inline uint64_t Mask(uint32_t bits) { return (uint64_t{1} << bits) - 1; }

constexpr int kMaxCodeLen = 15;
constexpr int kNumLitlenSyms = 288;  // 286 and 287 only in fixed blocks
constexpr int kNumDistSyms = 32;     // 30 and 31 only in fixed blocks
constexpr int kNumPrecodeSyms = 19;
constexpr uint32_t kLitlenBits = 11;
constexpr uint32_t kDistBits = 8;
constexpr uint32_t kPrecodeBits = 7;  // precode lengths are at most 7
constexpr size_t kLitlenTableSize =
    (size_t{1} << kLitlenBits) +
    kNumLitlenSyms * (size_t{1} << (kMaxCodeLen - kLitlenBits));
constexpr size_t kDistTableSize =
    (size_t{1} << kDistBits) +
    kNumDistSyms * (size_t{1} << (kMaxCodeLen - kDistBits));
constexpr size_t kPrecodeTableSize = size_t{1} << kPrecodeBits;

// Per-symbol entry templates: value, flags and the count of extra bits (low
// byte). BuildTable adds each code's length.
constexpr std::array<uint32_t, kNumLitlenSyms> kLitlenSymbols = [] {
  constexpr uint16_t kBase[29] = {3,  4,  5,  6,   7,   8,   9,   10,  11, 13,
                                  15, 17, 19, 23,  27,  31,  35,  43,  51, 59,
                                  67, 83, 99, 115, 131, 163, 195, 227, 258};
  constexpr uint8_t kExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                  1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                  4, 4, 4, 4, 5, 5, 5, 5, 0};
  std::array<uint32_t, kNumLitlenSyms> t{};
  for (uint32_t s = 0; s < 256; ++s) t[s] = (s << 16) | kLiteral;
  t[256] = kEndOfBlock;
  for (uint32_t s = 257; s < 286; ++s) {
    t[s] = (uint32_t{kBase[s - 257]} << 16) | kExtra[s - 257];
  }
  t[286] = kInvalid;
  t[287] = kInvalid;
  return t;
}();

constexpr std::array<uint32_t, kNumDistSyms> kDistSymbols = [] {
  constexpr uint16_t kBase[30] = {
      1,    2,    3,    4,    5,    7,     9,     13,    17,  25,
      33,   49,   65,   97,   129,  193,   257,   385,   513, 769,
      1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
  std::array<uint32_t, kNumDistSyms> t{};
  for (uint32_t s = 0; s < 30; ++s) {
    const uint32_t extra = s < 4 ? 0 : s / 2 - 1;
    t[s] = (uint32_t{kBase[s]} << 16) | extra;
  }
  t[30] = kInvalid;
  t[31] = kInvalid;
  return t;
}();

constexpr std::array<uint32_t, kNumPrecodeSyms> kPrecodeSymbols = [] {
  std::array<uint32_t, kNumPrecodeSyms> t{};
  for (uint32_t s = 0; s < kNumPrecodeSyms; ++s) t[s] = s << 16;
  return t;
}();

// The order in which a dynamic block lists the code-length code's lengths.
constexpr uint8_t kPrecodeOrder[kNumPrecodeSyms] = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

constexpr std::array<uint8_t, 256> kReversedBytes = [] {
  std::array<uint8_t, 256> t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t r = 0;
    for (uint32_t i = 0; i < 8; ++i) r |= ((b >> i) & 1) << (7 - i);
    t[b] = static_cast<uint8_t>(r);
  }
  return t;
}();

/// The low `len` (<= 16) bits of `code`, reversed.
inline uint32_t ReverseBits(uint32_t code, uint32_t len) {
  const uint32_t reversed16 = (uint32_t{kReversedBytes[code & 0xff]} << 8) |
                              kReversedBytes[(code >> 8) & 0xff];
  return reversed16 >> (16 - len);
}

enum class CodeSet {
  kComplete,  // the code-length code: every codeword must be assigned
  kPartial,   // literal/length and distance codes: zlib also accepts an
              // empty set and a single one-bit code (RFC 1951 §3.2.7)
};

/// Builds the decode table of the canonical Huffman code given by `lens`
/// (`num_syms` lengths, 0 = unused). False for an over-subscribed set and for
/// an incomplete one that `set` does not allow. Codewords an allowed
/// incomplete set leaves unassigned decode to kInvalid entries.
bool BuildTable(const uint8_t* lens, int num_syms, const uint32_t* symbols,
                uint32_t table_bits, CodeSet set, uint32_t* table) {
  uint32_t count[kMaxCodeLen + 1] = {};
  for (int s = 0; s < num_syms; ++s) ++count[lens[s]];
  count[0] = 0;
  uint32_t max_len = kMaxCodeLen;
  while (max_len > 0 && count[max_len] == 0) --max_len;
  const size_t main_size = size_t{1} << table_bits;
  int64_t left = 1;
  for (uint32_t len = 1; len <= kMaxCodeLen; ++len) {
    left = (left << 1) - count[len];
    if (left < 0) return false;  // over-subscribed
  }
  if (left > 0) {
    // Incomplete. zlib's rule: no codes at all, or one code of length 1.
    if (set == CodeSet::kComplete || max_len > 1) return false;
    std::fill(table, table + main_size, kInvalid | 1u);
    if (max_len == 0) return true;
  }

  // Symbols sorted by code length, then symbol: canonical codeword order.
  uint32_t offset[kMaxCodeLen + 2] = {};
  for (uint32_t len = 1; len <= kMaxCodeLen; ++len) {
    offset[len + 1] = offset[len] + count[len];
  }
  uint16_t sorted[kNumLitlenSyms];
  for (int s = 0; s < num_syms; ++s) {
    if (lens[s] != 0) sorted[offset[lens[s]]++] = static_cast<uint16_t>(s);
  }
  const uint32_t num_codes = offset[kMaxCodeLen];

  uint32_t code = 0;  // canonical codeword of sorted[i], MSB first
  size_t next_subtable = main_size;
  uint32_t sub_prefix = ~0u;
  size_t sub_start = 0;
  uint32_t sub_bits = 0;
  for (uint32_t i = 0; i < num_codes; ++i) {
    const uint32_t sym = sorted[i];
    const uint32_t len = lens[sym];
    if (len <= table_bits) {
      const uint32_t entry = symbols[sym] + (len << 8) + len;
      for (size_t j = ReverseBits(code, len); j < main_size;
           j += size_t{1} << len) {
        table[j] = entry;
      }
    } else {
      const uint32_t rest = len - table_bits;
      const uint32_t prefix = ReverseBits(code >> rest, table_bits);
      if (prefix != sub_prefix) {
        // A new subtree: index enough bits that the codes still to come
        // fill it (zlib's sizing; count[] holds the codes not yet placed).
        sub_bits = rest;
        int64_t space = int64_t{1} << sub_bits;
        while (sub_bits + table_bits < max_len) {
          space -= count[sub_bits + table_bits];
          if (space <= 0) break;
          ++sub_bits;
          space <<= 1;
        }
        sub_start = next_subtable;
        next_subtable += size_t{1} << sub_bits;
        table[prefix] = (static_cast<uint32_t>(sub_start) << 16) | kSubtable |
                        (sub_bits << 8) | table_bits;
        sub_prefix = prefix;
      }
      const uint32_t entry = symbols[sym] + (rest << 8) + rest;
      for (size_t j = ReverseBits(code, rest); j < (size_t{1} << sub_bits);
           j += size_t{1} << rest) {
        table[sub_start + j] = entry;
      }
    }
    --count[len];
    ++code;
    if (i + 1 < num_codes) code <<= lens[sorted[i + 1]] - len;
  }
  return true;
}

struct FixedTables {
  uint32_t litlen[kLitlenTableSize];
  uint32_t dist[kDistTableSize];
};

const FixedTables& Fixed() {
  static const FixedTables* const tables = [] {
    auto* t = new FixedTables;
    uint8_t lens[kNumLitlenSyms];
    std::fill(lens, lens + 144, uint8_t{8});
    std::fill(lens + 144, lens + 256, uint8_t{9});
    std::fill(lens + 256, lens + 280, uint8_t{7});
    std::fill(lens + 280, lens + 288, uint8_t{8});
    BuildTable(lens, kNumLitlenSyms, kLitlenSymbols.data(), kLitlenBits,
               CodeSet::kComplete, t->litlen);
    std::fill(lens, lens + kNumDistSyms, uint8_t{5});
    BuildTable(lens, kNumDistSyms, kDistSymbols.data(), kDistBits,
               CodeSet::kComplete, t->dist);
    return t;
  }();
  return *tables;
}

inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

inline uint32_t LoadLE16(const uint8_t* p) {
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8);
}

inline uint32_t LoadLE32(const uint8_t* p) {
  return LoadLE16(p) | (LoadLE16(p + 2) << 16);
}

Status Corrupt(const char* what) {
  return Status::DataCorruption(std::string("corrupt gzip member: ") + what);
}

Status Truncated() {
  return Status::DataCorruption(
      "truncated gzip member (input ended mid-stream)");
}

// The fast loop runs while one iteration cannot read or write out of
// bounds: two 8-byte refills, the first advancing at most 7 bytes, and two
// literals plus a 258-byte match copied in 8-byte words (up to 7 bytes of
// overshoot, rewritten by later output).
constexpr ptrdiff_t kFastInMargin = 16;
constexpr ptrdiff_t kFastOutMargin = 2 + 258 + 8;

constexpr size_t kMinGrowableCapacity = 64 * 1024;

/// One member's decode. All state is local to the call, so scans decode
/// members on many threads at once.
class Inflater {
 public:
  Inflater(const uint8_t* in, size_t size, InflateBuffer* out, size_t limit)
      : in_begin_(in), in_next_(in), in_end_(in + size), out_(out),
        limit_(limit) {}

  Status Run(size_t* consumed) {
    SetOutput(0);
    RAW_RETURN_NOT_OK(Header());
    bool final_block = false;
    while (!final_block) {
      uint32_t header = 0;
      RAW_RETURN_NOT_OK(Bits(3, &header));
      final_block = (header & 1) != 0;
      switch (header >> 1) {
        case 0:
          RAW_RETURN_NOT_OK(StoredBlock());
          break;
        case 1:
          RAW_RETURN_NOT_OK(HuffmanBlock(Fixed().litlen, Fixed().dist));
          break;
        case 2:
          RAW_RETURN_NOT_OK(DynamicTables());
          RAW_RETURN_NOT_OK(HuffmanBlock(litlen_, dist_));
          break;
        default:
          return Corrupt("invalid block type");
      }
    }
    return Trailer(consumed);
  }

  size_t decoded() const {
    return static_cast<size_t>(out_next_ - out_begin_);
  }

 private:
  // --- Output ----------------------------------------------------------------

  void SetOutput(size_t used) {
    out_begin_ = reinterpret_cast<uint8_t*>(out_->mutable_data());
    out_next_ = out_begin_ + used;
    out_end_ = out_begin_ + std::min(out_->capacity(), limit_);
  }

  /// Ensures `n` more bytes fit: grows geometrically up to the limit.
  Status MakeRoom(size_t n) {
    const size_t used = decoded();
    const size_t room = static_cast<size_t>(out_end_ - out_next_);
    if (room >= n) return Status::OK();
    if (limit_ - used < n) {
      return Corrupt("member decodes to more bytes than its index entry");
    }
    size_t capacity = std::max({used + n, 2 * used, kMinGrowableCapacity});
    capacity = std::min(capacity, limit_);
    RAW_RETURN_NOT_OK(out_->Reserve(capacity));
    SetOutput(used);
    return Status::OK();
  }

  // --- Bits ------------------------------------------------------------------
  //
  // Bits are consumed from the low end of a 64-bit buffer. The bits above
  // `bitsleft_` may hold the low bits of the byte at `in_next_` (left there by
  // the fast loop's 8-byte refill); every refill writes that byte to the same
  // place, so OR-ing it in again is harmless.

  /// Checked refill to 56-63 bits. Past the end of the input it shifts in
  /// zero bytes (so a short final code can still be looked up) and counts
  /// them; consuming any of them means the member was cut short.
  Status RefillSlow() {
    while (bitsleft_ < 56) {
      uint64_t byte = 0;
      if (in_next_ != in_end_) {
        byte = *in_next_++;
      } else {
        ++overread_;
      }
      bitbuf_ |= byte << bitsleft_;
      bitsleft_ += 8;
    }
    if (overread_ > (bitsleft_ >> 3)) return Truncated();
    return Status::OK();
  }

  void Consume(uint32_t n) {
    bitbuf_ >>= n;
    bitsleft_ -= n;
  }

  Status Bits(uint32_t n, uint32_t* value) {
    if (bitsleft_ < n) RAW_RETURN_NOT_OK(RefillSlow());
    *value = static_cast<uint32_t>(bitbuf_ & Mask(n));
    Consume(n);
    return Status::OK();
  }

  /// Looks up the next code (through a subtable if need be), consumes it and
  /// its extra bits, and returns its entry with the extra bits' value.
  /// Needs 28 buffered bits for a distance, 20 for a literal/length.
  uint32_t Decode(const uint32_t* table, uint32_t table_bits, uint32_t* extra) {
    uint32_t e = table[bitbuf_ & Mask(table_bits)];
    if (RAW_UNLIKELY(e & kSubtable)) {
      Consume(table_bits);
      e = table[EntryValue(e) + (bitbuf_ & Mask(EntryCodeLen(e)))];
    }
    const uint64_t saved = bitbuf_;
    Consume(EntryBits(e));
    *extra = static_cast<uint32_t>((saved & Mask(EntryBits(e))) >>
                                   EntryCodeLen(e));
    return e;
  }

  /// Drops the bits up to the next byte boundary and leaves the bit buffer
  /// empty with `in_next_` at the first unconsumed byte.
  Status AlignToByte() {
    Consume(bitsleft_ & 7);
    const size_t unread = bitsleft_ >> 3;
    if (overread_ > unread) return Truncated();
    in_next_ -= unread - overread_;
    bitbuf_ = 0;
    bitsleft_ = 0;
    overread_ = 0;
    return Status::OK();
  }

  size_t InputLeft() const { return static_cast<size_t>(in_end_ - in_next_); }

  // --- Format ----------------------------------------------------------------

  /// RFC 1952 member header; leaves `in_next_` at the deflate stream.
  Status Header() {
    // FTEXT (0x01) is advisory and ignored.
    constexpr uint8_t kFhcrc = 0x02, kFextra = 0x04, kFname = 0x08,
                      kFcomment = 0x10;
    const uint8_t* p = in_begin_;
    if (InputLeft() < 10) return Truncated();
    if (p[0] != 0x1f || p[1] != 0x8b) return Corrupt("not a gzip member");
    if (p[2] != 8) return Corrupt("unknown compression method");
    const uint8_t flags = p[3];
    if (flags & 0xe0) return Corrupt("reserved header flags set");
    p += 10;  // MTIME, XFL and OS are not used
    if (flags & kFextra) {
      if (in_end_ - p < 2) return Truncated();
      const size_t xlen = LoadLE16(p);
      p += 2;
      if (static_cast<size_t>(in_end_ - p) < xlen) return Truncated();
      p += xlen;
    }
    for (const uint8_t flag : {kFname, kFcomment}) {
      if ((flags & flag) == 0) continue;
      const void* nul = std::memchr(p, 0, static_cast<size_t>(in_end_ - p));
      if (nul == nullptr) return Truncated();
      p = static_cast<const uint8_t*>(nul) + 1;
    }
    if (flags & kFhcrc) {
      if (in_end_ - p < 2) return Truncated();
      const uint32_t header_crc = static_cast<uint32_t>(
          crc32_z(0, in_begin_, static_cast<size_t>(p - in_begin_)));
      if ((header_crc & 0xffff) != LoadLE16(p)) {
        return Corrupt("header CRC mismatch");
      }
      p += 2;
    }
    in_next_ = p;
    return Status::OK();
  }

  Status StoredBlock() {
    RAW_RETURN_NOT_OK(AlignToByte());
    if (InputLeft() < 4) return Truncated();
    const uint32_t len = LoadLE16(in_next_);
    if (len != (~LoadLE16(in_next_ + 2) & 0xffff)) {
      return Corrupt("stored block length check failed");
    }
    in_next_ += 4;
    if (InputLeft() < len) return Truncated();
    RAW_RETURN_NOT_OK(MakeRoom(len));
    std::memcpy(out_next_, in_next_, len);
    out_next_ += len;
    in_next_ += len;
    return Status::OK();
  }

  Status DynamicTables() {
    uint32_t hlit = 0, hdist = 0, hclen = 0;
    RAW_RETURN_NOT_OK(Bits(5, &hlit));
    RAW_RETURN_NOT_OK(Bits(5, &hdist));
    RAW_RETURN_NOT_OK(Bits(4, &hclen));
    hlit += 257;
    hdist += 1;
    hclen += 4;
    if (hlit > 286 || hdist > 30) {
      return Corrupt("too many length or distance codes");
    }
    uint8_t precode_lens[kNumPrecodeSyms] = {};
    for (uint32_t i = 0; i < hclen; ++i) {
      uint32_t len = 0;
      RAW_RETURN_NOT_OK(Bits(3, &len));
      precode_lens[kPrecodeOrder[i]] = static_cast<uint8_t>(len);
    }
    if (!BuildTable(precode_lens, kNumPrecodeSyms, kPrecodeSymbols.data(),
                    kPrecodeBits, CodeSet::kComplete, precode_)) {
      return Corrupt("invalid code-length code");
    }

    uint8_t lens[286 + 30];
    const uint32_t total = hlit + hdist;
    uint32_t n = 0;
    while (n < total) {
      if (bitsleft_ < kPrecodeBits) RAW_RETURN_NOT_OK(RefillSlow());
      uint32_t unused = 0;
      const uint32_t sym = EntryValue(Decode(precode_, kPrecodeBits, &unused));
      if (sym < 16) {
        lens[n++] = static_cast<uint8_t>(sym);
        continue;
      }
      uint8_t value = 0;
      uint32_t repeat = 0;
      if (sym == 16) {
        if (n == 0) return Corrupt("length repeat with no previous length");
        value = lens[n - 1];
        RAW_RETURN_NOT_OK(Bits(2, &repeat));
        repeat += 3;
      } else if (sym == 17) {
        RAW_RETURN_NOT_OK(Bits(3, &repeat));
        repeat += 3;
      } else {
        RAW_RETURN_NOT_OK(Bits(7, &repeat));
        repeat += 11;
      }
      if (repeat > total - n) return Corrupt("code lengths repeat too far");
      std::memset(lens + n, value, repeat);
      n += repeat;
    }
    if (lens[256] == 0) return Corrupt("no end-of-block code");
    if (!BuildTable(lens, static_cast<int>(hlit), kLitlenSymbols.data(),
                    kLitlenBits, CodeSet::kPartial, litlen_)) {
      return Corrupt("invalid literal/length code lengths");
    }
    if (!BuildTable(lens + hlit, static_cast<int>(hdist), kDistSymbols.data(),
                    kDistBits, CodeSet::kPartial, dist_)) {
      return Corrupt("invalid distance code lengths");
    }
    return Status::OK();
  }

  Status HuffmanBlock(const uint32_t* litlen, const uint32_t* dist) {
    while (true) {
      switch (FastLoop(litlen, dist)) {
        case FastExit::kMargin:
          break;
        case FastExit::kEndOfBlock:
          return Status::OK();
        case FastExit::kBadLitlen:
          return Corrupt("invalid literal/length code");
        case FastExit::kBadDistance:
          return Corrupt("invalid distance code");
        case FastExit::kFarDistance:
          return Corrupt("distance reaches before the member's start");
      }

      // One symbol with every read and write checked, then retry the fast
      // loop (the output may have grown).
      RAW_RETURN_NOT_OK(RefillSlow());
      uint32_t extra = 0;
      uint32_t e = Decode(litlen, kLitlenBits, &extra);
      if (e & kLiteral) {
        RAW_RETURN_NOT_OK(MakeRoom(1));
        *out_next_++ = static_cast<uint8_t>(EntryValue(e));
        continue;
      }
      if (e & kInvalid) return Corrupt("invalid literal/length code");
      if (e & kEndOfBlock) return Status::OK();
      const uint32_t length = EntryValue(e) + extra;
      RAW_RETURN_NOT_OK(RefillSlow());
      e = Decode(dist, kDistBits, &extra);
      if (e & kInvalid) return Corrupt("invalid distance code");
      const uint32_t distance = EntryValue(e) + extra;
      if (distance > decoded()) {
        return Corrupt("distance reaches before the member's start");
      }
      RAW_RETURN_NOT_OK(MakeRoom(length));
      const uint8_t* src = out_next_ - distance;
      for (uint32_t i = 0; i < length; ++i) out_next_[i] = src[i];
      out_next_ += length;
    }
  }

  enum class FastExit {
    kMargin,  // too little input or output room left for the fast loop
    kEndOfBlock,
    kBadLitlen,
    kBadDistance,
    kFarDistance,
  };

  /// Decodes symbols while the margins hold, with no per-symbol bounds
  /// checks. The state lives in locals for the loop's duration: output
  /// stores are `uint8_t` stores, which may alias any member, so the
  /// compiler could not otherwise keep the bit buffer in registers.
  FastExit FastLoop(const uint32_t* litlen, const uint32_t* dist) {
    // The refill before the loop may advance 7 bytes before the first
    // iteration's margin check.
    if (in_end_ - in_next_ < kFastInMargin + 8 ||
        out_end_ - out_next_ < kFastOutMargin) {
      return FastExit::kMargin;
    }
    const uint8_t* const in_last = in_end_ - kFastInMargin;
    uint8_t* const out_last = out_end_ - kFastOutMargin;
    uint64_t bitbuf = bitbuf_;
    uint32_t bitsleft = bitsleft_;
    const uint8_t* in_next = in_next_;
    uint8_t* out_next = out_next_;
    uint8_t* const out_begin = out_begin_;
    FastExit exit = FastExit::kMargin;

    auto refill = [&] {
      bitbuf |= LoadLE64(in_next) << bitsleft;
      in_next += (63 - bitsleft) >> 3;
      bitsleft |= 56;
    };
    auto consume = [&](uint32_t n) {
      bitbuf >>= n;
      bitsleft -= n;
    };
    // A length or distance entry's base plus its extra bits, read from the
    // bit buffer as it was before the entry was consumed.
    auto with_extra = [](uint32_t e, uint64_t saved) {
      return EntryValue(e) +
             static_cast<uint32_t>((saved & Mask(EntryBits(e))) >>
                                   EntryCodeLen(e));
    };
    auto put_literal = [&](uint32_t e) {
      *out_next++ = static_cast<uint8_t>(EntryValue(e));
    };

    // Each iteration starts with the next literal/length entry already
    // looked up and 56+ bits buffered: the lookup for the next symbol comes
    // before the refill and the match copy, so neither sits on the chain of
    // dependent table lookups. Main-table codes take at most 11
    // bits (literals) or 16 (a length code with its extra bits).
    refill();
    uint32_t e = litlen[bitbuf & Mask(kLitlenBits)];
    do {
      uint64_t saved = bitbuf;
      consume(EntryBits(e));
      if (e & kLiteral) {
        // Up to two more literals: 3 x 11 bits, then an 11-bit lookup, fit
        // in 56.
        uint32_t literal = e;
        e = litlen[bitbuf & Mask(kLitlenBits)];
        saved = bitbuf;
        consume(EntryBits(e));
        put_literal(literal);
        if (e & kLiteral) {
          literal = e;
          e = litlen[bitbuf & Mask(kLitlenBits)];
          saved = bitbuf;
          consume(EntryBits(e));
          put_literal(literal);
          if (e & kLiteral) {
            literal = e;
            e = litlen[bitbuf & Mask(kLitlenBits)];
            refill();
            put_literal(literal);
            continue;
          }
        }
      }
      // `e` is consumed: a subtable pointer, the end of the block, or a
      // length.
      if (RAW_UNLIKELY(e & (kSubtable | kEndOfBlock | kInvalid))) {
        if (e & kSubtable) {
          e = litlen[EntryValue(e) + (bitbuf & Mask(EntryCodeLen(e)))];
          saved = bitbuf;
          consume(EntryBits(e));
          if (e & kLiteral) {
            put_literal(e);
            e = litlen[bitbuf & Mask(kLitlenBits)];
            refill();
            continue;
          }
        }
        if (e & (kEndOfBlock | kInvalid)) {
          exit = (e & kInvalid) ? FastExit::kBadLitlen : FastExit::kEndOfBlock;
          break;
        }
      }
      const uint32_t length = with_extra(e, saved);

      // A distance takes at most 28 bits; 11 more preload the next entry.
      if (bitsleft < 28 + kLitlenBits) refill();
      e = dist[bitbuf & Mask(kDistBits)];
      if (RAW_UNLIKELY(e & kSubtable)) {
        consume(kDistBits);
        e = dist[EntryValue(e) + (bitbuf & Mask(EntryCodeLen(e)))];
      }
      if (RAW_UNLIKELY(e & kInvalid)) {
        exit = FastExit::kBadDistance;
        break;
      }
      saved = bitbuf;
      consume(EntryBits(e));
      const uint32_t distance = with_extra(e, saved);
      if (RAW_UNLIKELY(distance > static_cast<size_t>(out_next - out_begin))) {
        exit = FastExit::kFarDistance;
        break;
      }
      e = litlen[bitbuf & Mask(kLitlenBits)];
      refill();

      // Copy the match. Up to 7 bytes past its end get overwritten by
      // later output; the margin keeps them inside the buffer.
      uint8_t* dst = out_next;
      const uint8_t* src = dst - distance;
      out_next += length;
      if (distance >= 8) {
        // Each word reads bytes at least 8 behind the write: already final.
        do {
          uint64_t word;
          std::memcpy(&word, src, sizeof(word));
          std::memcpy(dst, &word, sizeof(word));
          src += 8;
          dst += 8;
        } while (dst < out_next);
      } else if (distance == 1) {
        const uint64_t word = *src * uint64_t{0x0101010101010101};
        do {
          std::memcpy(dst, &word, sizeof(word));
          dst += 8;
        } while (dst < out_next);
      } else {
        do {
          *dst++ = *src++;
        } while (dst < out_next);
      }
    } while (in_next <= in_last && out_next <= out_last);

    bitbuf_ = bitbuf;
    bitsleft_ = bitsleft;
    in_next_ = in_next;
    out_next_ = out_next;
    return exit;
  }

  Status Trailer(size_t* consumed) {
    RAW_RETURN_NOT_OK(AlignToByte());
    if (InputLeft() < 8) return Truncated();
    const size_t size = decoded();
    if (static_cast<uint32_t>(crc32_z(0, out_begin_, size)) !=
        LoadLE32(in_next_)) {
      return Corrupt("CRC32 mismatch");
    }
    if (static_cast<uint32_t>(size) != LoadLE32(in_next_ + 4)) {
      return Corrupt("ISIZE mismatch");
    }
    *consumed = static_cast<size_t>(in_next_ + 8 - in_begin_);
    return Status::OK();
  }

  const uint8_t* const in_begin_;
  const uint8_t* in_next_;
  const uint8_t* const in_end_;
  uint64_t bitbuf_ = 0;
  uint32_t bitsleft_ = 0;
  size_t overread_ = 0;  // zero bytes shifted in past in_end_

  InflateBuffer* const out_;
  const size_t limit_;  // most bytes the member may decode to
  uint8_t* out_begin_ = nullptr;
  uint8_t* out_next_ = nullptr;
  uint8_t* out_end_ = nullptr;

  // A dynamic block's tables (not initialized: BuildTable writes every
  // entry a lookup can reach).
  uint32_t precode_[kPrecodeTableSize];
  uint32_t litlen_[kLitlenTableSize];
  uint32_t dist_[kDistTableSize];
};

}  // namespace

Status GunzipMember(const char* data, size_t size, InflateBuffer* out,
                    size_t* consumed, std::optional<size_t> expected_size) {
  size_t limit = SIZE_MAX;
  if (expected_size.has_value()) {
    // Deflate expands at most 1032:1 (a 258-byte match in two bits).
    if (*expected_size / 1032 > size) {
      return Corrupt("index entry's size exceeds what the member can hold");
    }
    // Room for the fast loop's margin past the expected end.
    limit = *expected_size + kFastOutMargin;
    RAW_RETURN_NOT_OK(out->Reserve(limit));
  } else {
    RAW_RETURN_NOT_OK(out->Reserve(kMinGrowableCapacity));
  }
  Inflater inflater(reinterpret_cast<const uint8_t*>(data), size, out, limit);
  Status status = inflater.Run(consumed);
  out->set_size(status.ok() ? inflater.decoded() : 0);
  RAW_RETURN_NOT_OK(status);
  if (expected_size.has_value() && out->size() != *expected_size) {
    return Status::DataCorruption(
        "gzip member decodes to " + std::to_string(out->size()) +
        " bytes but its index entry records " +
        std::to_string(*expected_size) + " (file changed since indexing?)");
  }
  return Status::OK();
}

}  // namespace raw
