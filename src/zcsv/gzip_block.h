#ifndef RAW_ZCSV_GZIP_BLOCK_H_
#define RAW_ZCSV_GZIP_BLOCK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "format/format_driver.h"

namespace raw {

/// One gzip member of a multi-member .csv.gz file, cut on a row boundary.
/// A compressed-CSV file is a plain concatenation of members (valid gzip);
/// each member decompresses independently, which is what makes warm scans
/// morsel-parallel: a morsel is a contiguous range of blocks.
struct GzipBlock {
  uint64_t comp_offset = 0;  // byte offset of the member in the file
  uint64_t comp_size = 0;    // compressed size of the member
  uint64_t uncomp_size = 0;  // decompressed size
  int64_t first_row = 0;     // global row id of the member's first row
  int64_t num_rows = 0;      // data rows in the member
};

/// The compressed-CSV block-offset index: the format's adaptive state,
/// built as a side effect of the first (cold) scan and published through the
/// TableEntry claim/publish protocol — the gzip analogue of a positional
/// map, at member rather than field granularity.
class GzipBlockIndex final : public FormatAdaptiveState {
 public:
  void AppendBlock(const GzipBlock& block);

  int num_blocks() const { return static_cast<int>(blocks_.size()); }
  const GzipBlock& block(int i) const {
    return blocks_[static_cast<size_t>(i)];
  }
  int64_t total_rows() const { return total_rows_; }
  int64_t num_rows() const override { return total_rows_; }

  /// Any block's decompressed text contains the quote character: positional
  /// reads must use the quote-aware tokenizer.
  bool quoted() const { return quoted_; }
  void set_quoted(bool quoted) { quoted_ = quoted; }

  /// Index of the block containing global row `row`, or -1 if out of range.
  int FindBlockForRow(int64_t row) const;

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(blocks_.capacity() * sizeof(GzipBlock));
  }

  /// Blocks must tile the file: contiguous compressed offsets and row ids.
  Status CheckConsistency() const override;

 private:
  std::vector<GzipBlock> blocks_;
  int64_t total_rows_ = 0;
  bool quoted_ = false;
};

/// Compresses `data` as one complete gzip member appended to `*out`.
Status GzipCompressMember(std::string_view data, std::string* out);

inline constexpr size_t kDefaultGzipBlockBytes = 256 * 1024;

/// Writes `csv_text` to `path` as a multi-member gzip file, cutting members
/// on row boundaries every ~`block_bytes` of uncompressed text. Test and
/// example helper — real files come from `gzip --rsyncable`-style tools or
/// log rotation, which produce the same member-per-chunk shape.
Status WriteCsvGzFile(const std::string& path, std::string_view csv_text,
                      size_t block_bytes = kDefaultGzipBlockBytes);

}  // namespace raw

#endif  // RAW_ZCSV_GZIP_BLOCK_H_
