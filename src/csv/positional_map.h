#ifndef RAW_CSV_POSITIONAL_MAP_H_
#define RAW_CSV_POSITIONAL_MAP_H_

#include <cstdint>
#include <vector>

#include "common/adaptive_state.h"
#include "common/status.h"
#include "common/statusor.h"

namespace raw {

/// Positional map (§2.3): an index over the *structure* of a textual raw
/// file. For each row it stores the byte offsets of a configurable subset of
/// columns, so later queries can jump (or almost jump) to a field instead of
/// re-tokenizing from the start of the row.
///
/// Tracking policy trade-off (studied in bench_ablation_pmap_stride and, in
/// the paper, via the "Column 7" variants): tracking more columns costs more
/// memory and more bookkeeping during the building scan but shortens the
/// incremental parse distance for future queries.
class PositionalMap final : public FormatAdaptiveState {
 public:
  /// Tracks columns {0, stride, 2*stride, ...} of a `num_columns`-wide file.
  /// The paper's heuristics "every 10 columns" / "every 7 columns" map to
  /// stride 10 / 7 (columns are 0-based here; the paper counts from 1).
  static PositionalMap WithStride(int num_columns, int stride);

  /// Tracks an explicit, sorted set of columns.
  static PositionalMap TrackingColumns(int num_columns,
                                       std::vector<int> columns);

  int num_columns() const { return num_columns_; }
  int num_tracked() const { return static_cast<int>(tracked_.size()); }
  const std::vector<int>& tracked_columns() const { return tracked_; }
  int64_t num_rows() const override { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// True when `column` is tracked exactly.
  bool Tracks(int column) const { return SlotFor(column) >= 0; }

  /// Slot index of `column` among the tracked columns, or -1.
  int SlotFor(int column) const;

  /// Largest tracked column <= `column`, or -1 when none (parse from row
  /// start). This is the "navigate to a nearby position, then incrementally
  /// parse" entry point (§2.3).
  int NearestTrackedAtOrBefore(int column) const;

  /// Appends the tracked positions of one row. `positions[s]` is the byte
  /// offset of tracked column s; `row_start` is the offset of column 0.
  void AppendRow(uint64_t row_start, const uint64_t* positions);

  /// Appends all rows of `other` (a per-morsel partial map built over a later
  /// slice of the same file). Both maps must track the same columns. The
  /// key-order bit becomes the AND of both maps' bits.
  Status AppendFrom(const PositionalMap& other);

  /// Key-order bit of a JSONL field-offset map: true while every appended
  /// row listed exactly the schema's keys, once each, in schema order, so a
  /// warm scan may walk forward from any mapped value to a later column
  /// (JsonlRowParser::ResumeRow). The building scan clears it at the first
  /// row that did not. CSV fields are positional; CSV maps never clear it.
  bool keys_in_schema_order() const { return keys_in_schema_order_; }
  void ClearKeysInSchemaOrder() { keys_in_schema_order_ = false; }

  /// Byte offset of row `row`'s column 0.
  uint64_t RowStart(int64_t row) const {
    return row_starts_[static_cast<size_t>(row)];
  }

  /// Byte offset of tracked slot `slot` in `row`.
  uint64_t Position(int64_t row, int slot) const {
    return positions_[static_cast<size_t>(row) *
                          static_cast<size_t>(tracked_.size()) +
                      static_cast<size_t>(slot)];
  }

  /// The row-major [row][slot] position array, num_rows() * num_tracked()
  /// entries: Position(row, slot) == positions_data()[row * num_tracked() +
  /// slot]. Generated kernels read whole-table scans straight from it.
  const uint64_t* positions_data() const { return positions_.data(); }

  /// Memory footprint in bytes.
  int64_t MemoryBytes() const override;

  void Reserve(int64_t rows);

  /// Validates internal consistency (row-major layout fully populated).
  Status CheckConsistency() const override;

 private:
  PositionalMap(int num_columns, std::vector<int> tracked)
      : num_columns_(num_columns), tracked_(std::move(tracked)) {}

  int num_columns_;
  std::vector<int> tracked_;        // sorted tracked column indices
  std::vector<uint64_t> row_starts_;
  std::vector<uint64_t> positions_;  // row-major [row][slot]
  int64_t num_rows_ = 0;
  bool keys_in_schema_order_ = true;
};

}  // namespace raw

#endif  // RAW_CSV_POSITIONAL_MAP_H_
