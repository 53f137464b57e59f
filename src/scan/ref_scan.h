#ifndef RAW_SCAN_REF_SCAN_H_
#define RAW_SCAN_REF_SCAN_H_

#include <optional>
#include <string>
#include <vector>

#include "eventsim/ref_reader.h"
#include "format/format.h"
#include "scan/access_path.h"

namespace raw {

/// Relational views over an REF event file (the paper's Figure 13 mapping):
///  * the event table   (eventID int64, runNumber int32), one row per event;
///  * a particle table  (eventID int64, pt/eta/phi float32) per group, one
///    row per particle, eventID derived from the nesting structure.
struct RefScanSpec {
  /// -1 => event table; otherwise kMuon / kElectron / kJet particle table.
  int group = -1;
  /// Field subset. Event table: {"eventID","runNumber"}; particle tables:
  /// any of {"eventID","pt","eta","phi"}. Empty => all fields.
  std::vector<std::string> fields;
  int64_t batch_rows = kDefaultBatchRows;
  /// Row-addressed morsel window for sequential scans (rows are event
  /// indices, or flat particle indices; default: the whole table). Emitted
  /// row ids stay file-global, so the parallel driver needs no rebasing.
  /// Ignored when `row_set` is present.
  ScanRange range;
  /// Explicit rows (event indices, or flat particle indices); id-based
  /// access instead of a full scan.
  std::optional<RowSet> row_set;
};

/// Interpreted sequential/id-based scan reading branches in bulk through the
/// REF reader API (the in-situ baseline for REF; the JIT variant generates
/// code making the same API calls, see jit/pipeline_codegen.cc).
class RefTableScanOperator : public Operator {
 public:
  RefTableScanOperator(RefReader* reader, RefScanSpec spec);

  const Schema& output_schema() const override { return output_schema_; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  std::string name() const override { return "RefTableScan"; }

 private:
  StatusOr<ColumnPtr> ReadFieldColumn(const std::string& field, int64_t first,
                                      int64_t count,
                                      const std::vector<int64_t>* explicit_rows);

  RefReader* reader_;
  RefScanSpec spec_;
  Schema output_schema_;
  int64_t cursor_ = 0;
  int64_t total_rows_ = 0;
};

/// Resolves the REF branch index for a (group, field) pair; group -1 selects
/// the event branches ("eventID" -> event/id, "runNumber" -> event/run).
StatusOr<int> RefBranchFor(const RefReader& reader, int group,
                           const std::string& field);

}  // namespace raw

#endif  // RAW_SCAN_REF_SCAN_H_
