#include "zcsv/zcsv_scan.h"

#include <utility>

#include "csv/csv_tokenizer.h"

namespace raw {
namespace {

/// CountRows twin that respects quoted newlines (CountRows counts raw '\n'
/// terminators, which overcounts when quoted fields embed newlines).
int64_t CountBlockRows(const char* begin, const char* end,
                       const CsvOptions& options, bool quoted) {
  if (!quoted) return CountRows(begin, end, options);
  const char* p = begin + DataStartOffset(begin, end, options);
  int64_t rows = 0;
  bool in_quotes = false;
  bool pending = false;
  for (; p < end; ++p) {
    const char c = *p;
    if (c == options.quote) {
      in_quotes = !in_quotes;
      pending = true;
    } else if (c == '\n' && !in_quotes) {
      ++rows;
      pending = false;
    } else if (c != '\r') {
      pending = true;
    }
  }
  if (pending) ++rows;  // last row without a trailing newline
  return rows;
}

}  // namespace

ZcsvScanOperator::ZcsvScanOperator(const MmapFile* file, ZcsvScanSpec spec)
    : file_(file), spec_(std::move(spec)) {
  output_schema_ = SchemaForColumns(spec_.file_schema, spec_.outputs);
}

Status ZcsvScanOperator::Open() {
  comp_cursor_ = 0;
  rows_seen_ = 0;
  block_ordinal_ = 0;
  block_cursor_ = 0;
  block_end_ = 0;
  row_base_ = 0;
  inner_.reset();
  if (spec_.outputs.empty()) {
    return Status::InvalidArgument(
        "compressed-CSV scan needs at least one output");
  }
  if (spec_.index != nullptr) {
    // Warm mode: the range addresses block ordinals.
    block_end_ = spec_.index->num_blocks();
    if (!spec_.range.whole()) {
      if (spec_.range.unit != ScanRange::Unit::kRows) {
        return Status::InvalidArgument(
            "compressed-CSV block range must be row-unit block ordinals");
      }
      const int64_t range_end =
          spec_.range.bounded() ? spec_.range.end : block_end_;
      if (spec_.range.begin < 0 || range_end > block_end_ ||
          spec_.range.begin > range_end) {
        return Status::InvalidArgument(
            "compressed-CSV block range out of bounds");
      }
      block_cursor_ = static_cast<int>(spec_.range.begin);
      block_end_ = static_cast<int>(range_end);
    }
  } else if (!spec_.range.whole()) {
    // Members are discovered sequentially (a member's compressed size is
    // unknown until it is decompressed), so cold scans are whole-file.
    return Status::InvalidArgument(
        "cold compressed-CSV scans are serial (no block index yet)");
  }
  return Status::OK();
}

Status ZcsvScanOperator::AdvanceBlock(bool* done) {
  *done = false;
  const char* base = file_->data();
  const size_t file_size = file_->size();

  CsvOptions block_options = spec_.options;
  bool quoted = false;
  if (spec_.index != nullptr) {
    if (block_cursor_ >= block_end_) {
      *done = true;
      return Status::OK();
    }
    const GzipBlock& block = spec_.index->block(block_cursor_);
    if (block.comp_offset >= file_size ||
        block.comp_size > file_size - block.comp_offset) {
      // The published block index outlived the bytes it indexes.
      if (spec_.health != nullptr) {
        spec_.health->io_faults.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::DataCorruption(
          "gzip block " + std::to_string(block_cursor_) + " spans bytes [" +
          std::to_string(block.comp_offset) + ", " +
          std::to_string(block.comp_offset + block.comp_size) +
          ") but the file holds only " + std::to_string(file_size) +
          " bytes (file truncated since the index was built?)");
    }
    size_t consumed = 0;
    Status gunzip = GunzipMember(base + block.comp_offset,
                                 file_size - block.comp_offset, &buffer_,
                                 &consumed, block.uncomp_size);
    if (!gunzip.ok()) {
      if (spec_.health != nullptr) {
        spec_.health->io_faults.fetch_add(1, std::memory_order_relaxed);
      }
      return Status(gunzip.code(),
                    "gzip block " + std::to_string(block_cursor_) +
                        " at offset " + std::to_string(block.comp_offset) +
                        ": " + std::string(gunzip.message()));
    }
    block_options.has_header = spec_.options.has_header && block_cursor_ == 0;
    quoted = spec_.index->quoted();
    row_base_ = block.first_row;
    ++block_cursor_;
  } else {
    if (comp_cursor_ >= file_size) {
      *done = true;
      return Status::OK();
    }
    size_t consumed = 0;
    Status gunzip = GunzipMember(base + comp_cursor_, file_size - comp_cursor_,
                                 &buffer_, &consumed);
    if (!gunzip.ok()) {
      if (spec_.health != nullptr) {
        spec_.health->io_faults.fetch_add(1, std::memory_order_relaxed);
      }
      return Status(gunzip.code(),
                    "gzip member at offset " + std::to_string(comp_cursor_) +
                        ": " + std::string(gunzip.message()));
    }
    block_options.has_header = spec_.options.has_header && block_ordinal_ == 0;
    quoted = BufferContainsQuote(buffer_.data(),
                                 buffer_.data() + buffer_.size(),
                                 spec_.options.quote);
    const int64_t rows = CountBlockRows(
        buffer_.data(), buffer_.data() + buffer_.size(), block_options, quoted);
    if (spec_.build_index != nullptr) {
      GzipBlock block;
      block.comp_offset = comp_cursor_;
      block.comp_size = consumed;
      block.uncomp_size = buffer_.size();
      block.first_row = rows_seen_;
      block.num_rows = rows;
      spec_.build_index->AppendBlock(block);
      if (quoted) spec_.build_index->set_quoted(true);
    }
    row_base_ = rows_seen_;
    rows_seen_ += rows;
    comp_cursor_ += consumed;
    ++block_ordinal_;
  }

  CsvScanSpec inner_spec;
  inner_spec.file_schema = spec_.file_schema;
  inner_spec.outputs = spec_.outputs;
  inner_spec.options = block_options;
  inner_spec.quoted = quoted;
  inner_spec.batch_rows = spec_.batch_rows;
  inner_spec.policy = spec_.policy;
  inner_spec.health = spec_.health;
  inner_spec.profile = spec_.profile;
  inner_ = std::make_unique<InsituCsvScanOperator>(
      buffer_.data(), buffer_.size(), std::move(inner_spec));
  return inner_->Open();
}

StatusOr<ColumnBatch> ZcsvScanOperator::Next() {
  while (true) {
    if (inner_ == nullptr) {
      bool done = false;
      RAW_RETURN_NOT_OK(AdvanceBlock(&done));
      if (done) return ColumnBatch::EndOfStream(output_schema_);
    }
    RAW_ASSIGN_OR_RETURN(ColumnBatch batch, inner_->Next());
    if (batch.end_of_stream()) {
      RAW_RETURN_NOT_OK(inner_->Close());
      inner_.reset();
      continue;
    }
    if (row_base_ != 0 && batch.has_row_ids()) {
      // Inner ids are buffer-local; rebase to file-global row ids.
      rebase_scratch_ = batch.row_ids();
      for (int64_t& id : rebase_scratch_) id += row_base_;
      batch.SetRowIds(rebase_scratch_);
    }
    return batch;
  }
}

}  // namespace raw
