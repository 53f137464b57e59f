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

/// Everything a fused-pipeline operator instance needs beyond its
/// PipelineSpec — the fused counterpart of JitScanArgs. The spec describes
/// *what code to generate*; these args describe *what data to run it over*.
struct FusedPipelineArgs {
  PipelineSpec spec;
  /// kProject: qualified output field names, parallel to spec.projections.
  /// kAggregate: must equal FusedAggPartialSchema(spec.aggs).
  Schema output_schema;

  /// CSV / binary: the memory-mapped raw file.
  const MmapFile* file = nullptr;
  /// Binary / REF: total (morsel-end) row count; -1 derives it from the
  /// window size (binary) or the reader (REF).
  int64_t total_rows = -1;

  /// REF: the reader whose I/O API the generated code calls.
  RefReader* ref_reader = nullptr;

  /// CSV by-position input (positions filled before Open()).
  std::optional<RowSet> row_set;

  /// Binary morsel window: restricts the scan to bytes
  /// [window_begin, window_end) of the file (window_end == 0 => whole file).
  uint64_t window_begin = 0;
  uint64_t window_end = 0;

  /// Global row id of the window's first row. Fused kernels emit global row
  /// ids themselves (dense columns are indexed by global id inside the
  /// kernel), so the parallel driver must NOT rebase them again.
  int64_t dense_row_base = 0;

  /// REF morsels: scan rows [first_row, total_rows).
  int64_t first_row = 0;

  /// Parallel to spec.inputs: the cached full column for dense inputs
  /// (shred-cache hits), null for file inputs.
  std::vector<ColumnPtr> dense_columns;

  int64_t batch_rows = kDefaultBatchRows;
  ScanProfile* profile = nullptr;
  /// The plan's counters; Open() adds the time it waited for the compiler.
  ScanHealth* health = nullptr;
};

/// Volcano operator driving one fused scan→filter→project→aggregate kernel
/// over one morsel. Compiles (or fetches from the template cache) at Open().
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
  /// REF aggregate kernels decode branch ranges into these host-owned
  /// buffers (exposed through ctx.out_columns).
  std::vector<ColumnPtr> ref_decode_scratch_;
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
