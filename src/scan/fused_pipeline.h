#ifndef RAW_SCAN_FUSED_PIPELINE_H_
#define RAW_SCAN_FUSED_PIPELINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "columnar/aggregate.h"
#include "common/mmap_file.h"
#include "common/scan_health.h"
#include "eventsim/ref_reader.h"
#include "jit/jit_abi.h"
#include "jit/template_cache.h"
#include "scan/access_path.h"
#include "scan/scan_profile.h"

namespace raw {

/// Everything a pipeline operator instance needs beyond its PipelineSpec.
/// The spec describes *what code to generate*; these args describe *what
/// data to run it over*.
struct FusedPipelineArgs {
  PipelineSpec spec;
  /// kProject: output field names, parallel to spec.projections.
  /// kAggregate: must equal FusedAggPartialSchema(spec.aggs).
  Schema output_schema;

  /// CSV / binary: the memory-mapped raw file.
  const MmapFile* file = nullptr;
  /// REF: the reader whose I/O API the generated code calls.
  RefReader* ref_reader = nullptr;

  /// The rows to visit: a morsel's row range, or the whole table when
  /// unbounded (binary: derived from the file size; REF: the reader's event
  /// count; CSV by-position: the map's row count). Kernels emit global row
  /// ids for these. Unused by sequential CSV scans, which walk the byte
  /// window instead, and when `row_set` is given.
  ScanRange rows = ScanRange::Whole();

  /// Explicit rows for selective kernels (late fetches). Empty CSV
  /// positions are filled from `pmap` at Open().
  std::optional<RowSet> row_set;

  /// CSV by-position: the map holding each row's anchor position. Without a
  /// row_set the kernel reads `rows` straight from the map's position
  /// array — no per-row arrays are built.
  const PositionalMap* pmap = nullptr;

  /// Sequential CSV morsels: restricts the scan to bytes
  /// [window_begin, window_end) of the file (window_end == 0 => whole file).
  /// The kernel sees the window as its entire file, so its row ids are
  /// window-local (the parallel scan driver rebases CSV morsels by prefix
  /// sums) and the map offsets it records are rebased to absolute file
  /// offsets before AppendRow.
  uint64_t window_begin = 0;
  uint64_t window_end = 0;

  /// Sequential CSV: positional map populated as a side effect of the scan.
  /// Must be configured with exactly spec.pmap_tracked columns.
  PositionalMap* build_pmap = nullptr;

  /// Parallel to spec.inputs: the cached full column for dense inputs
  /// (shred-cache hits), null for file inputs. May be empty when no input
  /// is dense.
  std::vector<ColumnPtr> dense_columns;

  int64_t batch_rows = kDefaultBatchRows;
  ScanProfile* profile = nullptr;
  /// The plan's counters; Open() adds the time it waited for the compiler.
  ScanHealth* health = nullptr;
};

/// Volcano operator driving one generated kernel — a JIT scan, or a fused
/// scan→filter→project→aggregate pipeline — over one morsel. Compiles (or
/// fetches from the template cache) at Open(): the "freshly-compiled library
/// ... linked with the remaining query plan using the Volcano model" of §3.
///
/// kProject: emits filtered, projected rows batch by batch; the kernel loops
/// internally, so a 0-row return means end of stream.
/// kAggregate: one kernel invocation folds the whole morsel into the context
/// agg arrays; the operator then emits exactly one partial-state row
/// (FusedAggPartialSchema) that FusedAggFinalizeOperator merges downstream.
class FusedPipelineOperator : public Operator {
 public:
  FusedPipelineOperator(JitTemplateCache* cache, FusedPipelineArgs args);

  const Schema& output_schema() const override { return args_.output_schema; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  std::string name() const override { return "FusedPipeline"; }

 private:
  static int32_t RefReadRangeTrampoline(void* reader, int32_t branch,
                                        int64_t first, int64_t count,
                                        void* out);

  /// Points the kernel at its input: the byte window (sequential CSV), the
  /// explicit row set, or the row range `rows`.
  Status BindInput();
  StatusOr<ColumnBatch> NextProject();
  StatusOr<ColumnBatch> NextAggregate();

  JitTemplateCache* cache_;
  FusedPipelineArgs args_;
  CompiledKernel kernel_;
  RawJitContext ctx_ = {};
  bool eof_ = false;
  std::vector<const void*> dense_ptr_scratch_;
  std::vector<int64_t> agg_count_;
  std::vector<double> agg_dacc_;
  std::vector<int64_t> agg_iacc_;
  std::vector<uint8_t> agg_init_;
  std::vector<uint8_t> sel_mask_scratch_;
  /// ctx.pred_literals: the spec's predicate literals, bound at Open().
  std::vector<RawJitLiteral> pred_literals_;
  std::vector<int64_t> row_id_scratch_;
  std::vector<void*> out_ptr_scratch_;
  /// Sequential REF kernels decode branch ranges into these host-owned
  /// buffers (ctx.decode_columns).
  std::vector<ColumnPtr> ref_decode_scratch_;
  std::vector<void*> decode_ptr_scratch_;
  /// Sequential CSV map building: batch-sized row starts and positions.
  std::vector<uint64_t> pmap_rows_scratch_;
  std::vector<uint64_t> pmap_pos_scratch_;
};

/// Merges the per-morsel partial rows a fused aggregate pipeline emits into
/// the single final row, with the schema and bit-exact values
/// AggregateOperator would have produced: a fresh accumulator per aggregate,
/// folded left-to-right in morsel order via AggAccumulator::Merge.
class FusedAggFinalizeOperator : public Operator {
 public:
  /// `input_types` is parallel to `specs`: the aggregated column's type
  /// (kInt64 for COUNT(*)), exactly what AggregateOperator derives from its
  /// child schema.
  FusedAggFinalizeOperator(OperatorPtr child, std::vector<AggSpec> specs,
                           std::vector<DataType> input_types);

  const Schema& output_schema() const override { return output_schema_; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  Status Close() override { return child_->Close(); }
  std::string name() const override { return "FusedAggFinalize"; }

 private:
  OperatorPtr child_;
  std::vector<AggSpec> specs_;
  std::vector<DataType> input_types_;
  Schema output_schema_;
  bool done_ = false;
};

}  // namespace raw

#endif  // RAW_SCAN_FUSED_PIPELINE_H_
