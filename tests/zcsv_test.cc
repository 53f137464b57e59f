#include <gtest/gtest.h>
#include <zlib.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "tests/test_util.h"
#include "zcsv/gzip_block.h"
#include "zcsv/inflate.h"
#include "zcsv/zcsv_scan.h"

namespace raw {
namespace {

Schema TwoColSchema() {
  return Schema{{"a", DataType::kInt32}, {"b", DataType::kString}};
}

std::string MakeCsvText(int rows) {
  std::string text;
  for (int i = 0; i < rows; ++i) {
    text += std::to_string(i) + ",s" + std::to_string(i) + "\n";
  }
  return text;
}

// Built without a leading string literal in an rvalue operator+ chain (GCC
// 12's -Wrestrict false positive, which -Werror CI would reject).
std::string SVal(int64_t i) {
  std::string s = "s";
  s += std::to_string(i);
  return s;
}

std::string QuotedVal(int64_t i) {
  std::string s = "line1\nline2 ";
  s += std::to_string(i);
  return s;
}

TEST(GzipBlockTest, MemberRoundTripAndConsumedSize) {
  std::string compressed;
  ASSERT_OK(GzipCompressMember("hello gzip", &compressed));
  ASSERT_OK(GzipCompressMember(" and again", &compressed));
  InflateBuffer out;
  size_t consumed = 0;
  ASSERT_OK(GunzipMember(compressed.data(), compressed.size(), &out,
                         &consumed));
  EXPECT_EQ(out.view(), "hello gzip");
  ASSERT_LT(consumed, compressed.size());
  // The next member replaces the buffer's contents.
  const size_t first = consumed;
  ASSERT_OK(GunzipMember(compressed.data() + first,
                         compressed.size() - first, &out, &consumed));
  EXPECT_EQ(out.view(), " and again");
  EXPECT_EQ(first + consumed, compressed.size());
  std::string garbage = "not gzip at all";
  EXPECT_EQ(GunzipMember(garbage.data(), garbage.size(), &out, &consumed)
                .code(),
            StatusCode::kDataCorruption);
}

TEST(GzipBlockTest, IndexFindsRowsAndChecksConsistency) {
  GzipBlockIndex index;
  index.AppendBlock({0, 100, 400, 0, 10});
  index.AppendBlock({100, 80, 300, 10, 5});
  index.AppendBlock({180, 90, 350, 15, 20});
  ASSERT_OK(index.CheckConsistency());
  EXPECT_EQ(index.total_rows(), 35);
  EXPECT_EQ(index.FindBlockForRow(0), 0);
  EXPECT_EQ(index.FindBlockForRow(9), 0);
  EXPECT_EQ(index.FindBlockForRow(10), 1);
  EXPECT_EQ(index.FindBlockForRow(14), 1);
  EXPECT_EQ(index.FindBlockForRow(15), 2);
  EXPECT_EQ(index.FindBlockForRow(34), 2);
  EXPECT_EQ(index.FindBlockForRow(35), -1);
  EXPECT_EQ(index.FindBlockForRow(-1), -1);
  EXPECT_GT(index.MemoryBytes(), 0);

  GzipBlockIndex gap;
  gap.AppendBlock({0, 100, 400, 0, 10});
  gap.AppendBlock({120, 80, 300, 10, 5});  // compressed-offset gap
  EXPECT_FALSE(gap.CheckConsistency().ok());
}

class ZcsvScanTest : public testing::TempDirTest {
 protected:
  /// Writes `rows` of (int,string) CSV as multi-member gzip with small
  /// blocks, opens it, and returns the text for ground truth.
  std::string WriteAndOpen(int rows, size_t block_bytes) {
    std::string text = MakeCsvText(rows);
    EXPECT_OK(WriteCsvGzFile(Path("t.csv.gz"), text, block_bytes));
    auto file = MmapFile::Open(Path("t.csv.gz"));
    EXPECT_TRUE(file.ok());
    file_ = std::move(file).value();
    return text;
  }

  std::unique_ptr<MmapFile> file_;
};

TEST_F(ZcsvScanTest, ColdScanBuildsIndexAndWarmScanAgrees) {
  constexpr int kRows = 2000;
  WriteAndOpen(kRows, /*block_bytes=*/512);

  GzipBlockIndex index;
  {
    ZcsvScanSpec cold;
    cold.file_schema = TwoColSchema();
    cold.outputs = {0, 1};
    cold.build_index = &index;
    ZcsvScanOperator scan(file_.get(), cold);
    ASSERT_OK(scan.Open());
    int64_t seen = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
      if (batch.empty()) break;
      for (int64_t r = 0; r < batch.num_rows(); ++r) {
        const int64_t row = batch.row_ids()[static_cast<size_t>(r)];
        EXPECT_EQ(batch.column(0)->Value<int32_t>(r), row);
        EXPECT_EQ(batch.column(1)->StringValue(r), SVal(row));
      }
      seen += batch.num_rows();
    }
    EXPECT_EQ(seen, kRows);
  }
  ASSERT_OK(index.CheckConsistency());
  EXPECT_EQ(index.total_rows(), kRows);
  ASSERT_GT(index.num_blocks(), 1) << "block size too large to split";

  // Warm: scan an interior block range; ids must be file-global.
  const int mid = index.num_blocks() / 2;
  ZcsvScanSpec warm;
  warm.file_schema = TwoColSchema();
  warm.outputs = {0};
  warm.index = &index;
  warm.range = ScanRange::Rows(mid, 1);
  ZcsvScanOperator scan(file_.get(), warm);
  ASSERT_OK(scan.Open());
  int64_t seen = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
    if (batch.empty()) break;
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      EXPECT_EQ(batch.column(0)->Value<int32_t>(r),
                batch.row_ids()[static_cast<size_t>(r)]);
    }
    seen += batch.num_rows();
  }
  EXPECT_EQ(seen, index.block(mid).num_rows);
}

TEST_F(ZcsvScanTest, FetcherDecompressesOnlyNeededBlocks) {
  constexpr int kRows = 1000;
  WriteAndOpen(kRows, /*block_bytes=*/256);
  GzipBlockIndex index;
  {
    ZcsvScanSpec cold;
    cold.file_schema = TwoColSchema();
    cold.outputs = {0};
    cold.build_index = &index;
    ZcsvScanOperator scan(file_.get(), cold);
    ASSERT_OK(scan.Open());
    while (true) {
      ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
      if (batch.empty()) break;
    }
  }
  ASSERT_OK(index.CheckConsistency());

  ZcsvRowFetcher fetcher(file_.get(), &index, TwoColSchema(), {0, 1},
                         CsvOptions());
  RowSet rows;
  rows.ids = {0, 1, 500, 999};
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> cols, fetcher.Fetch(rows));
  ASSERT_EQ(cols.size(), 2u);
  for (size_t i = 0; i < rows.ids.size(); ++i) {
    EXPECT_EQ(cols[0]->Value<int32_t>(static_cast<int64_t>(i)), rows.ids[i]);
    EXPECT_EQ(cols[1]->StringValue(static_cast<int64_t>(i)),
              SVal(rows.ids[i]));
  }
  RowSet out_of_range;
  out_of_range.ids = {kRows + 5};
  EXPECT_FALSE(fetcher.Fetch(out_of_range).ok());
  RowSet empty;
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> none, fetcher.Fetch(empty));
  EXPECT_EQ(none[0]->length(), 0);
}

TEST_F(ZcsvScanTest, QuotedFieldsWithEmbeddedNewlinesSurvive) {
  // Member cuts are quote-aware: the embedded "\n" must not split a row.
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += std::to_string(i) + ",\"line1\nline2 " + std::to_string(i) +
            "\"\n";
  }
  ASSERT_OK(WriteCsvGzFile(Path("q.csv.gz"), text, /*block_bytes=*/128));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file,
                       MmapFile::Open(Path("q.csv.gz")));
  GzipBlockIndex index;
  ZcsvScanSpec cold;
  cold.file_schema = TwoColSchema();
  cold.outputs = {0, 1};
  cold.build_index = &index;
  ZcsvScanOperator scan(file.get(), cold);
  ASSERT_OK(scan.Open());
  int64_t seen = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
    if (batch.empty()) break;
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t row = batch.row_ids()[static_cast<size_t>(r)];
      EXPECT_EQ(batch.column(1)->StringValue(r), QuotedVal(row));
    }
    seen += batch.num_rows();
  }
  EXPECT_EQ(seen, 200);
  ASSERT_OK(index.CheckConsistency());
  EXPECT_TRUE(index.quoted());
  EXPECT_GT(index.num_blocks(), 1);

  // Quoted late-scan fetch through the index.
  ZcsvRowFetcher fetcher(file.get(), &index, TwoColSchema(), {1},
                         CsvOptions());
  RowSet rows;
  rows.ids = {199, 3};
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> cols, fetcher.Fetch(rows));
  EXPECT_EQ(cols[0]->StringValue(0), QuotedVal(199));
  EXPECT_EQ(cols[0]->StringValue(1), QuotedVal(3));
}

TEST_F(ZcsvScanTest, EmptyFileYieldsZeroRowsAndEmptyIndex) {
  ASSERT_OK(WriteCsvGzFile(Path("e.csv.gz"), ""));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file,
                       MmapFile::Open(Path("e.csv.gz")));
  GzipBlockIndex index;
  ZcsvScanSpec spec;
  spec.file_schema = TwoColSchema();
  spec.outputs = {0};
  spec.build_index = &index;
  ZcsvScanOperator scan(file.get(), spec);
  ASSERT_OK(scan.Open());
  ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
  EXPECT_TRUE(batch.empty());
  ASSERT_OK(index.CheckConsistency());
  EXPECT_EQ(index.total_rows(), 0);
}


// --- The decoder against zlib's inflate --------------------------------------

/// What decoding one member gave: status, bytes and compressed size.
struct Decoded {
  bool ok = false;
  std::string bytes;
  size_t consumed = 0;
};

/// zlib's inflate, the reference: one gzip member, input cut at `size`.
Decoded ZlibGunzip(std::string_view member) {
  Decoded d;
  z_stream zs{};
  if (inflateInit2(&zs, 16 + MAX_WBITS) != Z_OK) return d;
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

/// The decoder under test; `status` receives its Status.
Decoded OurGunzip(std::string_view member, Status* status = nullptr,
                  std::optional<size_t> expected = std::nullopt) {
  Decoded d;
  InflateBuffer out;
  // An exactly sized copy, so a sanitizer build catches any read past it.
  std::unique_ptr<char[]> exact(new char[member.size()]);
  if (!member.empty()) std::memcpy(exact.get(), member.data(), member.size());
  Status st = GunzipMember(exact.get(), member.size(), &out, &d.consumed,
                           expected);
  d.ok = st.ok();
  if (st.ok()) d.bytes.assign(out.view());
  if (status != nullptr) *status = st;
  return d;
}

/// Both decoders agree on success, bytes and `consumed`; a failure of ours
/// is DataCorruption. Returns whether the member decoded.
bool ExpectAgree(std::string_view member, const std::string& what) {
  SCOPED_TRACE(what);
  const Decoded ref = ZlibGunzip(member);
  Status st;
  const Decoded ours = OurGunzip(member, &st);
  EXPECT_EQ(ours.ok, ref.ok) << st.ToString();
  if (!ours.ok) {
    EXPECT_EQ(st.code(), StatusCode::kDataCorruption) << st.ToString();
    return false;
  }
  if (ref.ok) {
    EXPECT_EQ(ours.bytes.size(), ref.bytes.size());
    EXPECT_TRUE(ours.bytes == ref.bytes);
    EXPECT_EQ(ours.consumed, ref.consumed);
  }
  return ref.ok;
}

std::string ZlibGzip(std::string_view data, int level, int window_bits,
                     int mem_level, int strategy) {
  z_stream zs{};
  EXPECT_EQ(deflateInit2(&zs, level, Z_DEFLATED, 16 + window_bits, mem_level,
                         strategy),
            Z_OK);
  std::string out(deflateBound(&zs, data.size()) + 64, '\0');
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(data.data()));
  zs.avail_in = static_cast<uInt>(data.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(out.size());
  EXPECT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
  out.resize(zs.total_out);
  deflateEnd(&zs);
  return out;
}

std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng() & 0xff);
  return s;
}

TEST(InflateTest, AgreesWithZlibOnEveryLevelStrategyWindowAndMemLevel) {
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"csv", MakeCsvText(3000)},
      {"random", RandomBytes(20000, 7)},
      {"run", std::string(70000, 'x')},
      {"empty", std::string()},
  };
  const int strategies[] = {Z_DEFAULT_STRATEGY, Z_FILTERED, Z_HUFFMAN_ONLY,
                            Z_RLE, Z_FIXED};
  int checked = 0;
  for (const auto& [name, data] : inputs) {
    for (int level = 0; level <= 9; ++level) {
      for (int strategy : strategies) {
        for (int window_bits : {9, 15}) {
          for (int mem_level : {1, 9}) {
            std::string member =
                ZlibGzip(data, level, window_bits, mem_level, strategy);
            const std::string what =
                name + " level=" + std::to_string(level) +
                " strategy=" + std::to_string(strategy) +
                " wbits=" + std::to_string(window_bits) +
                " memlevel=" + std::to_string(mem_level);
            ASSERT_TRUE(ExpectAgree(member, what));
            // A following member is not part of this one.
            member += ZlibGzip("tail", 6, 15, 8, Z_DEFAULT_STRATEGY);
            ASSERT_TRUE(ExpectAgree(member, what + " +member"));
            // Warm decode against the right recorded size.
            Status st;
            const Decoded warm = OurGunzip(member, &st, data.size());
            ASSERT_OK(st);
            EXPECT_TRUE(warm.bytes == data) << what;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 4 * 10 * 5 * 2 * 2);
}

/// Deflate bits, LSB first; Huffman codes go MSB first (RFC 1951 §3.1.1).
class BitWriter {
 public:
  void Put(uint32_t value, int bits) {
    for (int i = 0; i < bits; ++i) PutBit((value >> i) & 1);
  }
  void PutCode(uint32_t code, int len) {
    for (int i = len - 1; i >= 0; --i) PutBit((code >> i) & 1);
  }
  void Align() {
    while (nbits_ != 0) PutBit(0);
  }
  void PutBytes(std::string_view bytes) {
    Align();
    for (char c : bytes) Put(static_cast<uint8_t>(c), 8);
  }
  std::string Finish() {
    Align();
    return bytes_;
  }

 private:
  void PutBit(uint32_t bit) {
    if (nbits_ == 0) bytes_.push_back('\0');
    bytes_.back() = static_cast<char>(bytes_.back() | (bit << nbits_));
    nbits_ = (nbits_ + 1) & 7;
  }
  std::string bytes_;
  int nbits_ = 0;
};

/// Canonical codewords for code lengths (0 = unused).
std::vector<uint32_t> CanonicalCodes(const std::vector<int>& lens) {
  std::vector<uint32_t> codes(lens.size(), 0);
  uint32_t code = 0;
  for (int len = 1; len <= 15; ++len) {
    for (size_t s = 0; s < lens.size(); ++s) {
      if (lens[s] == len) codes[s] = code++;
    }
    code <<= 1;
  }
  return codes;
}

/// A Huffman code for writing symbols.
struct Code {
  explicit Code(std::vector<int> l)
      : lens(std::move(l)), codes(CanonicalCodes(lens)) {}
  void Put(BitWriter* w, int sym) const {
    w->PutCode(codes[static_cast<size_t>(sym)], lens[static_cast<size_t>(sym)]);
  }
  std::vector<int> lens;
  std::vector<uint32_t> codes;
};

Code FixedLitlen() {
  std::vector<int> lens(288, 8);
  for (int s = 144; s < 256; ++s) lens[static_cast<size_t>(s)] = 9;
  for (int s = 256; s < 280; ++s) lens[static_cast<size_t>(s)] = 7;
  return Code(lens);
}

Code FixedDist() { return Code(std::vector<int>(32, 5)); }

/// A dynamic block header whose code lengths go through a flat 4-bit
/// code-length code over the symbols 0..15.
void PutDynamicHeader(BitWriter* w, bool final, const std::vector<int>& litlen,
                      const std::vector<int>& dist) {
  static const int kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                 11, 4,  12, 3, 13, 2, 14, 1, 15};
  w->Put(final ? 1 : 0, 1);
  w->Put(2, 2);
  w->Put(static_cast<uint32_t>(litlen.size() - 257), 5);
  w->Put(static_cast<uint32_t>(dist.size() - 1), 5);
  w->Put(19 - 4, 4);
  for (int sym : kOrder) w->Put(sym < 16 ? 4 : 0, 3);
  for (int len : litlen) w->PutCode(static_cast<uint32_t>(len), 4);
  for (int len : dist) w->PutCode(static_cast<uint32_t>(len), 4);
}

std::string Le32(uint32_t v) {
  std::string s;
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
  return s;
}

uint32_t Crc(std::string_view bytes) {
  return static_cast<uint32_t>(crc32_z(
      0, reinterpret_cast<const Bytef*>(bytes.data()), bytes.size()));
}

/// A gzip member around a raw deflate stream; `plain` feeds the trailer.
std::string GzipWrap(std::string_view deflate, std::string_view plain) {
  std::string m("\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff", 10);
  m.append(deflate);
  m += Le32(Crc(plain));
  m += Le32(static_cast<uint32_t>(plain.size()));
  return m;
}

/// Expects both decoders to decode `member` to `plain`.
void ExpectDecodes(const std::string& member, std::string_view plain,
                   const std::string& what) {
  ASSERT_TRUE(ExpectAgree(member, what));
  EXPECT_TRUE(OurGunzip(member).bytes == plain) << what;
}

/// Expects both decoders to reject `member`; ours with DataCorruption.
void ExpectCorrupt(const std::string& member, const std::string& what) {
  EXPECT_FALSE(ExpectAgree(member, what)) << what;
}

TEST(InflateTest, HandBuiltStoredBlocks) {
  {
    BitWriter w;
    w.Put(1, 1);  // BFINAL
    w.Put(0, 2);  // stored
    w.PutBytes(std::string("\x00\x00\xff\xff", 4));  // LEN = 0
    ExpectDecodes(GzipWrap(w.Finish(), ""), "", "stored LEN=0");
  }
  {
    const std::string parts[] = {"first,", std::string(), "second,",
                                 RandomBytes(3000, 3)};
    BitWriter w;
    std::string plain;
    for (size_t i = 0; i < 4; ++i) {
      w.Put(i == 3 ? 1 : 0, 1);
      w.Put(0, 2);
      const uint32_t len = static_cast<uint32_t>(parts[i].size());
      std::string lens;
      lens += static_cast<char>(len & 0xff);
      lens += static_cast<char>(len >> 8);
      lens += static_cast<char>(~len & 0xff);
      lens += static_cast<char>((~len >> 8) & 0xff);
      w.PutBytes(lens);
      w.PutBytes(parts[i]);
      plain += parts[i];
    }
    ExpectDecodes(GzipWrap(w.Finish(), plain), plain, "stored blocks in a row");
  }
}

TEST(InflateTest, HandBuiltDynamicBlocksWithOneAndNoDistanceCodes) {
  // Literal 'a' (1 bit), EOB and length 3 (2 bits each); one distance code
  // of one bit: the RFC's legal incomplete tree.
  std::vector<int> litlen(258, 0);
  litlen['a'] = 1;
  litlen[256] = 2;
  litlen[257] = 2;
  {
    const Code lit(litlen);
    BitWriter w;
    PutDynamicHeader(&w, true, litlen, {1});
    lit.Put(&w, 'a');
    lit.Put(&w, 257);  // length 3
    w.PutCode(0, 1);   // distance 1
    lit.Put(&w, 'a');
    lit.Put(&w, 256);
    ExpectDecodes(GzipWrap(w.Finish(), "aaaaa"), "aaaaa", "one distance code");
  }
  {
    // No distance code at all: legal while no match is coded.
    std::vector<int> only_lits(257, 0);
    only_lits['a'] = 1;
    only_lits[256] = 1;
    const Code lit(only_lits);
    BitWriter w;
    PutDynamicHeader(&w, true, only_lits, {0});
    for (int i = 0; i < 3; ++i) lit.Put(&w, 'a');
    lit.Put(&w, 256);
    ExpectDecodes(GzipWrap(w.Finish(), "aaa"), "aaa", "no distance code");
  }
}

TEST(InflateTest, HandBuiltLongestMatchAtTheFarthestDistance) {
  // 32,768 stored bytes, then one fixed-block match of length 258 at
  // distance 32,768 (symbol 285; distance symbol 29 with 13 extra bits).
  const std::string head = RandomBytes(32768, 11);
  BitWriter w;
  std::string plain;
  for (size_t off = 0; off < head.size(); off += 16384) {
    w.Put(0, 1);
    w.Put(0, 2);
    w.PutBytes(std::string("\x00\x40\xff\xbf", 4));  // LEN = 16384
    w.PutBytes(head.substr(off, 16384));
  }
  plain = head;
  const Code lit = FixedLitlen();
  const Code dist = FixedDist();
  w.Put(1, 1);
  w.Put(1, 2);  // fixed
  lit.Put(&w, 285);
  dist.Put(&w, 29);
  w.Put(32768 - 24577, 13);
  lit.Put(&w, 256);
  plain += head.substr(0, 258);
  ExpectDecodes(GzipWrap(w.Finish(), plain), plain, "258 at 32768");
}

TEST(InflateTest, FastLoopNeverReadsPastTheInput) {
  // Members whose last dynamic block starts a few bytes before the end,
  // with the bit buffer nearly drained by its header: the fast loop's
  // first iteration (two literals, a length with extra bits, a refill
  // before the distance) must stay inside the exactly sized input. The
  // fixed block in front shifts the bit alignment, HDIST the header length,
  // and the match count the bytes left.
  const Code fixed = FixedLitlen();
  std::vector<int> lens(fixed.lens.begin(), fixed.lens.begin() + 286);
  lens[284] = lens[285] = 7;  // complete without symbols 286 and 287
  const Code lit(lens);
  int checked = 0;
  for (int k = 0; k < 16; ++k) {
    for (int hdist = 1; hdist <= 30; ++hdist) {
      for (int matches = 0; matches < 5; ++matches) {
        BitWriter w;
        std::string plain;
        w.Put(0, 1);
        w.Put(1, 2);
        for (int i = 0; i < k; ++i) fixed.Put(&w, 'b');
        fixed.Put(&w, 256);
        plain.append(static_cast<size_t>(k), 'b');
        std::vector<int> dist(static_cast<size_t>(hdist), 0);
        dist[0] = 1;
        PutDynamicHeader(&w, true, lens, dist);
        lit.Put(&w, 'a');
        lit.Put(&w, 'a');
        plain += "aa";
        for (int j = 0; j < matches; ++j) {
          lit.Put(&w, 284);
          w.Put(30, 5);     // length 257
          w.PutCode(0, 1);  // distance 1
          plain.append(257, 'a');
        }
        lit.Put(&w, 256);
        ExpectDecodes(GzipWrap(w.Finish(), plain), plain,
                      "k=" + std::to_string(k) +
                          " hdist=" + std::to_string(hdist) +
                          " matches=" + std::to_string(matches));
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 16 * 30 * 5);
}

TEST(InflateTest, HeaderWithEveryOptionalFlag) {
  const std::string plain = MakeCsvText(200);
  std::string raw_deflate;
  {
    z_stream zs{};
    ASSERT_EQ(deflateInit2(&zs, 6, Z_DEFLATED, -15, 8, Z_DEFAULT_STRATEGY),
              Z_OK);
    raw_deflate.resize(deflateBound(&zs, plain.size()));
    zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(plain.data()));
    zs.avail_in = static_cast<uInt>(plain.size());
    zs.next_out = reinterpret_cast<Bytef*>(raw_deflate.data());
    zs.avail_out = static_cast<uInt>(raw_deflate.size());
    ASSERT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
    raw_deflate.resize(zs.total_out);
    deflateEnd(&zs);
  }
  // FTEXT | FHCRC | FEXTRA | FNAME | FCOMMENT.
  std::string header("\x1f\x8b\x08\x1f\x01\x02\x03\x04\x00\x03", 10);
  header += std::string("\x05\x00" "AB\x02\x00z", 7);  // XLEN 5, one subfield
  header += std::string("t.csv\0", 6);
  header += std::string("rows\0", 5);
  const uint32_t hcrc = Crc(header) & 0xffff;
  header += static_cast<char>(hcrc & 0xff);
  header += static_cast<char>(hcrc >> 8);
  std::string member = header + raw_deflate;
  member += Le32(Crc(plain));
  member += Le32(static_cast<uint32_t>(plain.size()));
  ExpectDecodes(member, plain, "all header flags");

  std::string bad_hcrc = member;
  bad_hcrc[header.size() - 1] ^= 0x01;
  ExpectCorrupt(bad_hcrc, "header CRC");
  std::string reserved = member;
  reserved[3] = static_cast<char>(reserved[3] | 0x20);
  ExpectCorrupt(reserved, "reserved flag");
}

TEST(InflateTest, MalformedStreamsAreDataCorruption) {
  const Code lit = FixedLitlen();
  const Code dist = FixedDist();
  auto fixed = [&](const std::vector<std::pair<int, int>>& syms) {
    // (literal/length symbol, distance symbol or -1)
    BitWriter w;
    w.Put(1, 1);
    w.Put(1, 2);
    for (const auto& [l, d] : syms) {
      lit.Put(&w, l);
      if (d >= 0) dist.Put(&w, d);
    }
    lit.Put(&w, 256);
    return w.Finish();
  };
  ExpectCorrupt(GzipWrap(fixed({{'a', -1}, {286, 0}}), "a"), "litlen 286");
  ExpectCorrupt(GzipWrap(fixed({{'a', -1}, {287, 0}}), "a"), "litlen 287");
  ExpectCorrupt(GzipWrap(fixed({{'a', -1}, {257, 30}}), "aaaa"), "distance 30");
  ExpectCorrupt(GzipWrap(fixed({{'a', -1}, {257, 31}}), "aaaa"), "distance 31");
  // Distance 2 with one byte out: before the member's first byte.
  ExpectCorrupt(GzipWrap(fixed({{'a', -1}, {257, 1}}), "aaaa"),
                "distance too far back");
  {
    BitWriter w;
    w.Put(1, 1);
    w.Put(3, 2);
    ExpectCorrupt(GzipWrap(w.Finish(), ""), "block type 3");
  }
  {
    BitWriter w;
    w.Put(1, 1);
    w.Put(0, 2);
    w.PutBytes(std::string("\x01\x00\xff\xff" "x", 5));  // NLEN != ~LEN
    ExpectCorrupt(GzipWrap(w.Finish(), "x"), "stored LEN/NLEN");
  }
  auto dynamic = [&](const std::vector<int>& litlen,
                     const std::vector<int>& dists) {
    BitWriter w;
    PutDynamicHeader(&w, true, litlen, dists);
    w.Put(0, 16);
    return GzipWrap(w.Finish(), "");
  };
  std::vector<int> over(257, 0);
  over[0] = over[1] = over[256] = 1;
  ExpectCorrupt(dynamic(over, {1}), "over-subscribed literal/length");
  std::vector<int> incomplete(257, 0);
  incomplete[0] = incomplete[256] = 2;
  ExpectCorrupt(dynamic(incomplete, {1}), "incomplete literal/length");
  std::vector<int> fine(257, 0);
  fine[0] = fine[256] = 1;
  ExpectCorrupt(dynamic(fine, {1, 1, 1}), "over-subscribed distance");
  ExpectCorrupt(dynamic(fine, {2, 2}), "incomplete distance");
  std::vector<int> no_eob(257, 0);
  no_eob[0] = no_eob[1] = 1;
  ExpectCorrupt(dynamic(no_eob, {1}), "no end-of-block code");
  {
    // HLIT = 30 and 31 (287 and 288 codes), HDIST = 31 (32 codes).
    for (const auto& [hlit, hdist] :
         std::vector<std::pair<int, int>>{{30, 0}, {31, 0}, {0, 30}, {0, 31}}) {
      BitWriter w;
      w.Put(1, 1);
      w.Put(2, 2);
      w.Put(static_cast<uint32_t>(hlit), 5);
      w.Put(static_cast<uint32_t>(hdist), 5);
      w.Put(15, 4);
      for (int i = 0; i < 19; ++i) w.Put(4, 3);
      w.Put(0, 32);
      ExpectCorrupt(GzipWrap(w.Finish(), ""),
                    "HLIT=" + std::to_string(hlit) +
                        " HDIST=" + std::to_string(hdist));
    }
  }
  {
    // Code-length code with lengths 1 and 2 only: incomplete.
    BitWriter w;
    w.Put(1, 1);
    w.Put(2, 2);
    w.Put(0, 5);
    w.Put(0, 5);
    w.Put(0, 4);              // HCLEN 4: symbols 16, 17, 18, 0
    w.Put(0, 3);
    w.Put(0, 3);
    w.Put(1, 3);              // symbol 18: length 1
    w.Put(2, 3);              // symbol 0: length 2
    w.Put(0, 32);
    ExpectCorrupt(GzipWrap(w.Finish(), ""), "incomplete code-length code");
  }

  // The trailer: CRC32 and ISIZE.
  const std::string good = ZlibGzip("trailer check", 6, 15, 8,
                                    Z_DEFAULT_STRATEGY);
  std::string bad_crc = good;
  bad_crc[bad_crc.size() - 8] ^= 0x01;
  ExpectCorrupt(bad_crc, "CRC mismatch");
  std::string bad_isize = good;
  bad_isize[bad_isize.size() - 4] ^= 0x01;
  ExpectCorrupt(bad_isize, "ISIZE mismatch");
}

TEST(InflateTest, EveryTruncationFails) {
  for (const std::string& plain :
       {std::string(), std::string("a"), MakeCsvText(60)}) {
    const std::string member = ZlibGzip(plain, 6, 15, 8, Z_DEFAULT_STRATEGY);
    for (size_t cut = 0; cut < member.size(); ++cut) {
      Status st;
      const Decoded d = OurGunzip(std::string_view(member.data(), cut), &st);
      EXPECT_FALSE(d.ok) << "cut " << cut << " of " << member.size();
      EXPECT_EQ(st.code(), StatusCode::kDataCorruption) << "cut " << cut;
      EXPECT_FALSE(ZlibGunzip(std::string_view(member.data(), cut)).ok);
    }
  }
}

TEST(InflateTest, EverySingleBitFlipIsCorruptionOrTheOriginal) {
  std::string plain = MakeCsvText(400);  // ~4 KB of text, ~2 KB compressed
  plain += RandomBytes(600, 5);
  const std::string member = ZlibGzip(plain, 6, 15, 8, Z_DEFAULT_STRATEGY);
  ASSERT_GT(member.size(), 1500u);
  ASSERT_LT(member.size(), 2600u);
  int clean = 0;
  for (size_t i = 0; i < member.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = member;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      Status st;
      const Decoded d = OurGunzip(flipped, &st);
      if (d.ok) {
        ++clean;
        ASSERT_TRUE(d.bytes == plain) << "byte " << i << " bit " << bit;
      } else {
        ASSERT_EQ(st.code(), StatusCode::kDataCorruption) << st.ToString();
      }
      ASSERT_EQ(d.ok, ZlibGunzip(flipped).ok) << "byte " << i << " bit " << bit;
    }
  }
  EXPECT_GT(clean, 0);  // MTIME, XFL and OS flips decode unchanged
}

TEST(InflateTest, WarmDecodeChecksTheIndexedSize) {
  const std::string plain = MakeCsvText(500);
  const std::string member = ZlibGzip(plain, 6, 15, 8, Z_DEFAULT_STRATEGY);
  for (size_t wrong : {plain.size() - 1, plain.size() + 1, size_t{0},
                       plain.size() * 2}) {
    Status st;
    EXPECT_FALSE(OurGunzip(member, &st, wrong).ok) << wrong;
    EXPECT_EQ(st.code(), StatusCode::kDataCorruption) << st.ToString();
  }
  Status st;
  EXPECT_TRUE(OurGunzip(member, &st, plain.size()).ok) << st.ToString();
}

TEST_F(ZcsvScanTest, WarmScanOverAStaleSizeIsDataCorruption) {
  WriteAndOpen(1000, /*block_bytes=*/512);
  GzipBlockIndex index;
  {
    ZcsvScanSpec cold;
    cold.file_schema = TwoColSchema();
    cold.outputs = {0};
    cold.build_index = &index;
    ZcsvScanOperator scan(file_.get(), cold);
    ASSERT_OK(scan.Open());
    while (true) {
      ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
      if (batch.empty()) break;
    }
  }
  ASSERT_GT(index.num_blocks(), 2);
  GzipBlockIndex stale;
  for (int b = 0; b < index.num_blocks(); ++b) {
    GzipBlock block = index.block(b);
    if (b == 1) block.uncomp_size += 1;
    stale.AppendBlock(block);
  }
  ZcsvScanSpec warm;
  warm.file_schema = TwoColSchema();
  warm.outputs = {0};
  warm.index = &stale;
  ZcsvScanOperator scan(file_.get(), warm);
  ASSERT_OK(scan.Open());
  Status failed;
  while (failed.ok()) {
    auto batch = scan.Next();
    if (!batch.ok()) {
      failed = batch.status();
      break;
    }
    if (batch->empty()) break;
  }
  EXPECT_EQ(failed.code(), StatusCode::kDataCorruption) << failed.ToString();

  ZcsvRowFetcher fetcher(file_.get(), &stale, TwoColSchema(), {0},
                         CsvOptions());
  RowSet rows;
  rows.ids = {index.block(1).first_row};
  EXPECT_EQ(fetcher.Fetch(rows).status().code(), StatusCode::kDataCorruption);
}

}  // namespace
}  // namespace raw
