#ifndef RAW_JSONL_JSONL_SCAN_H_
#define RAW_JSONL_JSONL_SCAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "common/scan_health.h"
#include "csv/positional_map.h"
#include "format/format.h"
#include "jsonl/jsonl_parser.h"
#include "scan/access_path.h"
#include "scan/scan_profile.h"

namespace raw {

/// Configuration of an in-situ scan over line-delimited JSON (one flat
/// object per line). One spec describes either:
///  * a sequential scan of a newline-aligned byte range (optionally building
///    the field-offset map — a PositionalMap whose tracked positions are the
///    byte offsets of tracked columns' *values*, wherever their keys appear
///    in each row, plus the map's key-order bit), or
///  * a positional scan that jumps to mapped value offsets for a set of rows
///    and, when the map's rows list their keys in schema order, walks from
///    the nearest mapped value to the untracked ones.
struct JsonlScanSpec {
  Schema file_schema;        // full object schema (all keys)
  std::vector<int> outputs;  // columns to materialize, ascending
  int64_t batch_rows = kDefaultBatchRows;

  /// Sequential mode: byte-addressed morsel (default: whole file). Must cut
  /// on line boundaries (see SplitJsonlByteRanges). Emitted row ids are
  /// range-local; the parallel scan driver rebases them.
  /// Positional mode: a row range of the map (ScanRange::Rows); emitted ids
  /// are file-global. Not combined with `row_set`.
  ScanRange range;

  /// Sequential mode: build this field-offset map while scanning (may be
  /// null). Offsets are file-global even for sub-range scans.
  PositionalMap* build_pmap = nullptr;

  /// Positional mode: jump with this map (null => sequential mode). Tracked
  /// columns jump straight to their value. When the map's key-order bit is
  /// set, an untracked column is reached the way the CSV anchor reaches one:
  /// the walk starts at the nearest tracked value at or before it, checks
  /// each key it passes, and re-anchors at any tracked value on the way to a
  /// later output. A key that does not match (bytes changed since the map
  /// was built) sends the row to a whole-object parse from the row start,
  /// as do all untracked reads when the bit is clear.
  const PositionalMap* use_pmap = nullptr;

  /// Positional mode: explicit rows (column shreds). Only `ids` are used;
  /// positions resolve through the map. When absent, the rows of `range`.
  std::optional<RowSet> row_set;

  /// What to do with rows whose bytes don't convert to the schema (or lines
  /// that aren't valid JSON at all). Tolerant policies must not be combined
  /// with `build_pmap`: a map can't index rows the scan couldn't tokenize
  /// (the planner never requests both).
  MalformedRowPolicy policy = MalformedRowPolicy::kFail;
  /// Per-query robustness counters (may be null); shared across morsels.
  ScanHealth* health = nullptr;

  ScanProfile* profile = nullptr;  // optional instrumentation
};

/// The interpreted JSONL scan operator — the JSON twin of
/// InsituCsvScanOperator, demonstrating that the engine's adaptive
/// machinery (positional maps, shreds, morsel parallelism) is
/// format-agnostic once value offsets replace column positions.
class JsonlScanOperator : public Operator {
 public:
  /// `file` must outlive the operator.
  JsonlScanOperator(const MmapFile* file, JsonlScanSpec spec);
  /// In-memory flavour (decompressed buffers, tests). `data` must outlive
  /// the operator.
  JsonlScanOperator(const char* data, size_t size, JsonlScanSpec spec);

  const Schema& output_schema() const override { return output_schema_; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  std::string name() const override { return "JsonlScan"; }

 private:
  StatusOr<ColumnBatch> NextSequential();
  StatusOr<ColumnBatch> NextPositional();
  /// Converts collected field views into typed columns; compacts `row_ids`
  /// in place when the skip policy drops rows (callers SetRowIds after).
  Status ConvertAndBuild(int64_t rows, ColumnBatch* out,
                         std::vector<int64_t>* row_ids);

  const char* data_;
  size_t size_;
  JsonlScanSpec spec_;
  Schema output_schema_;
  JsonlRowParser parser_;
  // Sequential cursor state.
  const char* pos_ = nullptr;
  const char* end_ = nullptr;
  int64_t row_ = 0;
  // Positional cursor state.
  int64_t input_cursor_ = 0;
  int64_t row_begin_ = 0;  // first map row of `range`
  int64_t row_end_ = 0;    // one past its last
  /// One stretch of a row's resume walk: jump to `slot`'s mapped value (the
  /// row start when -1), which belongs to column `from`, and walk to `to`.
  struct Segment {
    int slot = -1;
    int from = -1;
    int to = -1;
  };
  std::vector<Segment> segments_;
  bool resume_ = false;  // rows are read by segments, else parsed whole
  // Scratch.
  std::vector<JsonlField> row_fields_;             // one per schema field
  std::vector<std::vector<JsonlField>> refs_;      // [output][batch row]
  std::vector<int64_t> row_id_scratch_;
  std::string unescape_scratch_;
};

}  // namespace raw

#endif  // RAW_JSONL_JSONL_SCAN_H_
