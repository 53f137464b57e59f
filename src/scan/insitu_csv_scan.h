#ifndef RAW_SCAN_INSITU_CSV_SCAN_H_
#define RAW_SCAN_INSITU_CSV_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/mmap_file.h"
#include "common/scan_health.h"
#include "csv/csv_options.h"
#include "csv/csv_tokenizer.h"
#include "csv/positional_map.h"
#include "format/format.h"
#include "scan/access_path.h"
#include "scan/scan_profile.h"

namespace raw {

/// Configuration of a general-purpose in-situ CSV scan (the NoDB-style
/// baseline of §2.3/§4.2). One spec describes either:
///  * a sequential scan of the whole file (optionally building a positional
///    map as a side effect), or
///  * a positional scan that jumps to `anchor_column` via `use_pmap` for a
///    set of rows (a row range, or an explicit RowSet for column shreds) and
///    incrementally parses to the requested columns.
struct CsvScanSpec {
  Schema file_schema;         // full file schema (all physical columns)
  std::vector<int> outputs;   // columns to materialize, ascending
  CsvOptions options;
  /// The file contains `options.quote` somewhere: fields step through the
  /// quote-aware tokenizer (outer quotes stripped, embedded delimiters and
  /// newlines respected) so scans agree with schema inference. Detected once
  /// at catalog open; quote-free files keep the branch-light fast path.
  bool quoted = false;
  int64_t batch_rows = kDefaultBatchRows;

  /// Sequential mode: restrict the scan to a byte-addressed morsel of the
  /// file (default: the whole file). `range.begin` must point at the start
  /// of a data row and `range.end` one past a row terminator (or the file
  /// size); see SplitCsvByteRanges. Emitted row ids are local to the range
  /// (the parallel scan driver rebases them by morsel prefix sums).
  /// Positional mode: a row range of the map (ScanRange::Rows); emitted ids
  /// are file-global. Not combined with `row_set`.
  ScanRange range;

  /// Sequential mode: build this map while scanning (may be null).
  PositionalMap* build_pmap = nullptr;

  /// Positional mode: jump with this map (null => sequential mode).
  const PositionalMap* use_pmap = nullptr;
  /// Positional mode: tracked column the jumps land on. Must be tracked by
  /// `use_pmap` and <= the first output column.
  int anchor_column = -1;

  /// Positional mode: explicit rows (column shreds). Empty positions are
  /// filled from the map. When absent, the rows of `range` are visited.
  std::optional<RowSet> row_set;

  /// What to do with rows whose bytes don't convert to the schema.
  MalformedRowPolicy policy = MalformedRowPolicy::kFail;
  /// Per-query robustness counters (may be null); shared across morsels.
  ScanHealth* health = nullptr;

  ScanProfile* profile = nullptr;  // optional instrumentation
};

/// The interpreted scan operator: per-column loop with branch conditions and
/// catalog-type switches in the critical path — deliberately general-purpose,
/// this is precisely the overhead JIT access paths remove (§4.1).
class InsituCsvScanOperator : public Operator {
 public:
  /// `file` must outlive the operator.
  InsituCsvScanOperator(const MmapFile* file, CsvScanSpec spec);
  /// In-memory flavour (decompressed gzip blocks, tests). `data` must
  /// outlive the operator.
  InsituCsvScanOperator(const char* data, size_t size, CsvScanSpec spec);

  const Schema& output_schema() const override { return output_schema_; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  std::string name() const override { return "InsituCsvScan"; }

 private:
  StatusOr<ColumnBatch> NextSequential();
  StatusOr<ColumnBatch> NextSequentialQuoted();
  StatusOr<ColumnBatch> NextPositional();
  /// Converts the collected field views into typed columns. `row_ids` (the
  /// per-batch id scratch) is compacted in place when the skip policy drops
  /// rows, so callers must SetRowIds() only after this returns.
  Status ConvertAndBuild(const std::vector<std::vector<FieldRef>>& refs,
                         int64_t rows, ColumnBatch* out,
                         std::vector<int64_t>* row_ids);

  const char* data_;
  size_t size_;
  CsvScanSpec spec_;
  Schema output_schema_;
  // Sequential cursor state.
  const char* pos_ = nullptr;
  const char* end_ = nullptr;
  int64_t row_ = 0;
  // Positional cursor state.
  int64_t input_cursor_ = 0;
  int64_t row_begin_ = 0;  // first map row of `range`
  int64_t row_end_ = 0;    // one past its last
  int anchor_slot_ = -1;
  // Scratch: field views per output column for the current batch.
  std::vector<std::vector<FieldRef>> refs_;
  std::vector<int64_t> row_id_scratch_;
  // Sequential mode: tracked-slot index per column (-1 untracked).
  std::vector<int> slot_lookup_;
};

}  // namespace raw

#endif  // RAW_SCAN_INSITU_CSV_SCAN_H_
