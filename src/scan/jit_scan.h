#ifndef RAW_SCAN_JIT_SCAN_H_
#define RAW_SCAN_JIT_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/mmap_file.h"
#include "common/scan_health.h"
#include "csv/positional_map.h"
#include "eventsim/ref_reader.h"
#include "jit/jit_abi.h"
#include "jit/template_cache.h"
#include "scan/access_path.h"
#include "scan/scan_profile.h"

namespace raw {

/// Everything a JIT scan operator instance needs beyond its AccessPathSpec:
/// the concrete file, optional selective inputs, and optional positional-map
/// building. The spec describes *what code to generate*; these args describe
/// *what data to run it over*.
struct JitScanArgs {
  AccessPathSpec spec;
  /// Output field names, parallel to spec.outputs.
  Schema output_schema;

  /// CSV / binary: the memory-mapped raw file.
  const MmapFile* file = nullptr;
  /// Binary / REF sequential scans: total row count. CSV sequential passes
  /// -1 (rows are discovered while parsing).
  int64_t total_rows = -1;

  /// REF: the reader whose I/O API the generated code calls.
  RefReader* ref_reader = nullptr;

  /// Selective input for kByPosition / kByRowIndex kernels. For CSV the
  /// positions must be filled (FillPositions) before Open().
  std::optional<RowSet> row_set;

  /// Morsel window for sequential kernels: restricts the scan to bytes
  /// [window_begin, window_end) of the file (window_end == 0 => whole file).
  /// The kernel sees the window as its entire file, so its row ids are
  /// window-local: `row_id_offset` rebases them when the per-window row count
  /// is known up front (binary), and the parallel scan driver rebases CSV
  /// morsels by prefix sums. Positional-map offsets recorded by windowed
  /// kernels are rebased to absolute file offsets before AppendRow.
  uint64_t window_begin = 0;
  uint64_t window_end = 0;
  /// Added to every emitted row id (see window_begin).
  int64_t row_id_offset = 0;

  /// REF sequential morsels: the kernel's row cursor starts here instead of
  /// 0, so a morsel covers rows [first_row, total_rows) — set total_rows to
  /// the morsel's end row. REF kernels address branches by global flat index
  /// and emit global row ids, so no window/rebase is involved.
  int64_t first_row = 0;

  /// CSV sequential: positional map populated as a side effect of the scan.
  /// Must be configured with exactly spec.pmap_tracked columns.
  PositionalMap* build_pmap = nullptr;

  int64_t batch_rows = kDefaultBatchRows;
  ScanProfile* profile = nullptr;
  /// The plan's counters; Open() adds the time it waited for the compiler.
  ScanHealth* health = nullptr;
};

/// Volcano operator wrapping a generated scan kernel: compiles (or fetches
/// from the template cache) at Open(), then drives the kernel batch by batch,
/// wrapping its output buffers into ColumnBatches. The "freshly-compiled
/// library ... linked with the remaining query plan using the Volcano model"
/// of §3.
class JitScanOperator : public Operator {
 public:
  JitScanOperator(JitTemplateCache* cache, JitScanArgs args);

  const Schema& output_schema() const override { return args_.output_schema; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  std::string name() const override { return "JitScan"; }

 private:
  static int32_t RefReadRangeTrampoline(void* reader, int32_t branch,
                                        int64_t first, int64_t count,
                                        void* out);

  JitTemplateCache* cache_;
  JitScanArgs args_;
  CompiledKernel kernel_;
  RawJitContext ctx_ = {};
  bool eof_ = false;
  // pmap scratch buffers (batch-sized).
  std::vector<uint64_t> pmap_rows_scratch_;
  std::vector<uint64_t> pmap_pos_scratch_;
  std::vector<int64_t> row_id_scratch_;
  std::vector<void*> out_ptr_scratch_;
};

}  // namespace raw

#endif  // RAW_SCAN_JIT_SCAN_H_
