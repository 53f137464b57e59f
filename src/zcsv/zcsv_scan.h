#ifndef RAW_ZCSV_ZCSV_SCAN_H_
#define RAW_ZCSV_ZCSV_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "csv/csv_options.h"
#include "format/format.h"
#include "scan/access_path.h"
#include "scan/insitu_csv_scan.h"
#include "scan/scan_profile.h"
#include "zcsv/gzip_block.h"
#include "zcsv/inflate.h"

namespace raw {

/// Configuration of a scan over multi-member gzip-compressed CSV. One spec
/// describes either:
///  * a cold scan: serial, member-by-member streaming decompress of the
///    whole file, optionally building the block-offset index en route
///    (each member's entry is appended *before* its rows are emitted, so
///    late scans in the same pipeline can already navigate them), or
///  * a warm scan: decompress only an assigned contiguous range of blocks —
///    what makes warm compressed scans morsel-parallel.
struct ZcsvScanSpec {
  Schema file_schema;        // decompressed-CSV schema
  std::vector<int> outputs;  // columns to materialize, ascending
  CsvOptions options;
  int64_t batch_rows = kDefaultBatchRows;

  /// Warm mode: contiguous *block ordinal* range (unit kRows over block
  /// indices, default all blocks). Cold mode: must be whole (serial).
  ScanRange range;

  /// Warm mode: decompress per assigned block through this index (null =>
  /// cold mode). Row ids come out file-global (block.first_row + local).
  const GzipBlockIndex* index = nullptr;

  /// Cold mode: append one entry per decompressed member (may be null).
  GzipBlockIndex* build_index = nullptr;

  /// Inherited by the inner per-block CSV scan (see CsvScanSpec::policy).
  MalformedRowPolicy policy = MalformedRowPolicy::kFail;
  /// Per-query robustness counters (may be null); shared across morsels.
  ScanHealth* health = nullptr;

  ScanProfile* profile = nullptr;  // optional instrumentation
};

/// Compressed-CSV scan operator: decodes one gzip member at a time straight
/// into a reused buffer (sized from the index on warm scans, grown
/// geometrically on cold ones) and drains an inner in-situ CSV scan over
/// it, rebasing the inner scan's buffer-local row ids to file-global ids.
class ZcsvScanOperator : public Operator {
 public:
  /// `file` must outlive the operator.
  ZcsvScanOperator(const MmapFile* file, ZcsvScanSpec spec);

  const Schema& output_schema() const override { return output_schema_; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  std::string name() const override { return "ZcsvScan"; }

 private:
  /// Decompresses the next member and opens an inner CSV scan over it.
  /// Sets `*done` when no members remain in the assigned range.
  Status AdvanceBlock(bool* done);

  const MmapFile* file_;
  ZcsvScanSpec spec_;
  Schema output_schema_;
  // Cold cursor state.
  size_t comp_cursor_ = 0;    // next member's compressed offset
  int64_t rows_seen_ = 0;     // global row counter across members
  int block_ordinal_ = 0;     // member index (block 0 owns the header)
  // Warm cursor state.
  int block_cursor_ = 0;      // next block ordinal in the assigned range
  int block_end_ = 0;
  // Current block.
  int64_t row_base_ = 0;      // global row id of the block's first row
  InflateBuffer buffer_;      // decompressed member text
  std::unique_ptr<InsituCsvScanOperator> inner_;
  std::vector<int64_t> rebase_scratch_;
};

/// RowFetcher for compressed-CSV late scans: rows are grouped by block
/// through the index; each needed block is decoded into a call-local buffer
/// sized from the index (re-entrant, so the parallel fetch decorator can
/// chunk row sets across threads), line starts are rebuilt, and the needed
/// fields are tokenized per row.
class ZcsvRowFetcher : public RowFetcher {
 public:
  /// `file` and `index` must outlive the fetcher. `outputs` ascending.
  ZcsvRowFetcher(const MmapFile* file, const GzipBlockIndex* index,
                 Schema file_schema, std::vector<int> outputs,
                 CsvOptions options);

  /// Overrides the published field schema (e.g. qualified names).
  void set_fields(Schema fields) { schema_ = std::move(fields); }

  const Schema& fields() const override { return schema_; }
  StatusOr<std::vector<ColumnPtr>> Fetch(const RowSet& rows) override;

 private:
  const MmapFile* file_;
  const GzipBlockIndex* index_;
  Schema file_schema_;
  std::vector<int> outputs_;
  CsvOptions options_;
  Schema schema_;
};

}  // namespace raw

#endif  // RAW_ZCSV_ZCSV_SCAN_H_
