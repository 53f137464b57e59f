#ifndef RAW_JIT_PIPELINE_SPEC_H_
#define RAW_JIT_PIPELINE_SPEC_H_

#include <string>
#include <vector>

#include "columnar/aggregate.h"
#include "columnar/column.h"
#include "columnar/expression.h"
#include "common/datum.h"
#include "common/schema.h"
#include "format/format.h"

namespace raw {

/// How a generated kernel walks the file.
enum class ScanMode : uint8_t {
  /// Full forward scan over every row (first-query path; for CSV this is
  /// where the positional map is built as a side effect).
  kSequential = 0,
  /// CSV: visit only the given rows, jumping to a byte position per row
  /// (positional-map hit on `anchor_column`, then constant-distance
  /// incremental parse to the requested columns).
  kByPosition = 1,
  /// Binary / REF: visit only the given row ids; offsets are computed (binary)
  /// or id-based API calls are issued (REF).
  kByRowIndex = 2,
};

std::string_view ScanModeToString(ScanMode mode);

/// What a pipeline kernel emits.
enum class PipelineOutputMode : uint8_t {
  /// Filtered + projected rows (the kernel loops internally until its output
  /// buffers fill or the input is exhausted, so 0 rows produced still means
  /// end of stream).
  kProject = 0,
  /// One aggregate partial per morsel: the kernel consumes its entire input
  /// in a single invocation and leaves AggAccumulator-compatible state in
  /// the RawJitContext agg arrays.
  kAggregate = 1,
};

std::string_view PipelineOutputModeToString(PipelineOutputMode mode);

/// One column a pipeline kernel consumes. Dense inputs arrive through
/// ctx->in_dense (already-converted full columns from the shred cache);
/// file inputs are read by the format's scan loop.
struct PipelineInput {
  int column = 0;  // table column index (CSV/binary) or REF branch index
  DataType type = DataType::kInt32;
  bool dense = false;
};

/// `inputs[input] op literal`, with the literal already canonicalized to the
/// column's comparison type (exactly the coercion the interpreted
/// const-compare kernel applies, so fused and interpreted filters agree bit
/// for bit). The literal's type is part of the compiled kernel; its value is
/// bound at run time (RawJitContext::pred_literals).
struct PipelinePredicate {
  int input = 0;
  CompareOp op = CompareOp::kLt;
  Datum literal;
};

/// `kind` over `inputs[input]`; input == -1 for COUNT(*).
struct PipelineAgg {
  AggKind kind = AggKind::kCount;
  int input = -1;
};

/// Complete description of a generated scan→filter→project→aggregate kernel
/// — the "operator specification provided to the code generation plug-in"
/// of §3. A plain JIT scan is the degenerate case: a project-mode spec with
/// no predicates whose projections list every input. The template-cache
/// contract: everything the generated loop hard-codes is captured by
/// CacheKey(), so specs with equal keys are interchangeable compiled
/// artifacts. Predicate literal values are the one part of a spec the code
/// does not hard-code: the kernel loads them from ctx->pred_literals (filled
/// by FusedPipelineOperator from `predicates`), so specs that differ only in
/// literal values share one kernel.
struct PipelineSpec {
  // --- scan access path ------------------------------------------------------
  FileFormat format = FileFormat::kCsv;
  ScanMode scan_mode = ScanMode::kSequential;
  /// CSV field delimiter.
  char delimiter = ',';
  /// CSV kSequential: columns whose byte positions the kernel records while
  /// scanning, in ascending order (the positional map being built). Only a
  /// plain projection may track columns.
  std::vector<int> pmap_tracked;
  /// CSV kByPosition: the column the per-row byte positions point at. File
  /// inputs left of the anchor are not reachable (the planner never asks).
  int anchor_column = 0;
  /// Binary: the fixed row width and, parallel to the file (non-dense)
  /// inputs in input order, each one's byte offset within a row.
  int64_t row_width = 0;
  std::vector<int64_t> column_offsets;

  // --- pipeline --------------------------------------------------------------
  /// All columns the pipeline touches. CSV file inputs must ascend by column
  /// (the parse walks each row left to right).
  std::vector<PipelineInput> inputs;

  /// Conjunctive filters in evaluation order: dense predicates first (they
  /// run in the vectorizable mask prepass), then file-column predicates in
  /// input order (each tested right after its column is read, skipping the
  /// remaining read work for failing rows).
  std::vector<PipelinePredicate> predicates;

  PipelineOutputMode mode = PipelineOutputMode::kProject;

  /// kProject: input indices to emit, in output order.
  std::vector<int> projections;

  /// kAggregate: the aggregates to fold.
  std::vector<PipelineAgg> aggs;

  /// Stable identity for the template cache. Lists the scan fields, each
  /// input's column, type and denseness, each predicate's input, op and
  /// canonical literal *type* (never its value), the output mode, the
  /// projections and the aggregates.
  std::string CacheKey() const;

  std::string ToString() const { return CacheKey(); }
};

/// Number of partial-state columns each aggregate occupies in a fused
/// partial row: count (int64), dacc (float64), iacc (int64), init (int64).
inline constexpr int kFusedAggStateCols = 4;

/// Schema of the partial rows a fused aggregate kernel emits (one row per
/// morsel): kFusedAggStateCols fields per aggregate.
Schema FusedAggPartialSchema(const std::vector<PipelineAgg>& aggs);

/// Request to build a generated-kernel scan over one table: a planner
/// fusion request, or (ProjectionRequest) the plain projection behind a JIT
/// scan or late-scan fetcher. The driver embeds its scan access path,
/// compiles through the shared template cache, and returns the scan-level
/// operator (kProject: filtered projected rows; kAggregate: one partial row
/// per morsel, in morsel order).
struct FusedPipelineRequest {
  std::vector<PipelineInput> inputs;
  /// Parallel to `inputs`: the cached full column for dense inputs, null
  /// otherwise.
  std::vector<ColumnPtr> dense_columns;
  std::vector<PipelinePredicate> predicates;
  PipelineOutputMode mode = PipelineOutputMode::kProject;
  std::vector<int> projections;
  std::vector<PipelineAgg> aggs;
  /// kProject: the qualified output schema (parallel to `projections`).
  /// kAggregate: ignored — the operator emits FusedAggPartialSchema(aggs).
  Schema output_schema;
};

/// The pipeline half of the spec for `req` (inputs, predicates, mode,
/// projections, aggregates); the driver fills in the scan fields.
PipelineSpec PipelineSpecFor(const FusedPipelineRequest& req);

/// The schema of the operator running `req`: its output schema (kProject)
/// or the partial-state layout (kAggregate).
Schema PipelineOutputSchema(const FusedPipelineRequest& req);

/// The request reading table columns `cols` (all from the file) and emitting
/// them unfiltered as `qualified` — what a JIT scan or fetcher compiles.
FusedPipelineRequest ProjectionRequest(const Schema& table_schema,
                                       const std::vector<int>& cols,
                                       const Schema& qualified);

}  // namespace raw

#endif  // RAW_JIT_PIPELINE_SPEC_H_
