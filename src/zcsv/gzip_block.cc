#include "zcsv/gzip_block.h"

#include <zlib.h>

#include <cstdio>
#include <cstring>

namespace raw {

void GzipBlockIndex::AppendBlock(const GzipBlock& block) {
  blocks_.push_back(block);
  total_rows_ += block.num_rows;
}

int GzipBlockIndex::FindBlockForRow(int64_t row) const {
  if (row < 0 || row >= total_rows_ || blocks_.empty()) return -1;
  // Binary search the last block with first_row <= row.
  int lo = 0;
  int hi = num_blocks() - 1;
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (blocks_[static_cast<size_t>(mid)].first_row <= row) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const GzipBlock& b = blocks_[static_cast<size_t>(lo)];
  if (row < b.first_row || row >= b.first_row + b.num_rows) return -1;
  return lo;
}

Status GzipBlockIndex::CheckConsistency() const {
  uint64_t comp_cursor = 0;
  int64_t row_cursor = 0;
  for (const GzipBlock& b : blocks_) {
    if (b.comp_offset != comp_cursor) {
      return Status::Internal("gzip block index has a compressed-offset gap");
    }
    if (b.first_row != row_cursor) {
      return Status::Internal("gzip block index has a row-id gap");
    }
    if (b.comp_size == 0) {
      return Status::Internal("gzip block index has an empty member");
    }
    comp_cursor += b.comp_size;
    row_cursor += b.num_rows;
  }
  if (row_cursor != total_rows_) {
    return Status::Internal("gzip block index row total mismatch");
  }
  return Status::OK();
}

Status GzipCompressMember(std::string_view data, std::string* out) {
  z_stream zs;
  std::memset(&zs, 0, sizeof(zs));
  if (deflateInit2(&zs, Z_DEFAULT_COMPRESSION, Z_DEFLATED, 16 + MAX_WBITS, 8,
                   Z_DEFAULT_STRATEGY) != Z_OK) {
    return Status::Internal("deflateInit2 failed");
  }
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(data.data()));
  zs.avail_in = static_cast<uInt>(data.size());

  char buffer[64 * 1024];
  int rc = Z_OK;
  while (rc != Z_STREAM_END) {
    zs.next_out = reinterpret_cast<Bytef*>(buffer);
    zs.avail_out = static_cast<uInt>(sizeof(buffer));
    rc = deflate(&zs, Z_FINISH);
    if (rc != Z_OK && rc != Z_STREAM_END) {
      deflateEnd(&zs);
      return Status::Internal("deflate failed");
    }
    out->append(buffer, sizeof(buffer) - zs.avail_out);
  }
  deflateEnd(&zs);
  return Status::OK();
}

Status WriteCsvGzFile(const std::string& path, std::string_view csv_text,
                      size_t block_bytes) {
  if (block_bytes == 0) block_bytes = kDefaultGzipBlockBytes;
  std::string compressed;
  size_t begin = 0;
  while (begin < csv_text.size()) {
    // Extend past block_bytes to the next row terminator so members hold
    // whole rows. The walk tracks quote parity: a '\n' inside a quoted field
    // is not a row boundary.
    size_t cut = csv_text.size();
    bool in_quotes = false;
    for (size_t i = begin; i < csv_text.size(); ++i) {
      const char c = csv_text[i];
      if (c == '"') {
        in_quotes = !in_quotes;
      } else if (c == '\n' && !in_quotes && i + 1 - begin >= block_bytes) {
        cut = i + 1;
        break;
      }
    }
    RAW_RETURN_NOT_OK(
        GzipCompressMember(csv_text.substr(begin, cut - begin), &compressed));
    begin = cut;
  }
  if (csv_text.empty()) {
    // An empty table is still a valid (single empty member) gzip file.
    RAW_RETURN_NOT_OK(GzipCompressMember(csv_text, &compressed));
  }
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create gzip file '" + path + "'");
  }
  const size_t written = fwrite(compressed.data(), 1, compressed.size(), f);
  if (fclose(f) != 0 || written != compressed.size()) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace raw
