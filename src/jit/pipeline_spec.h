#ifndef RAW_JIT_PIPELINE_SPEC_H_
#define RAW_JIT_PIPELINE_SPEC_H_

#include <string>
#include <vector>

#include "columnar/aggregate.h"
#include "columnar/column.h"
#include "columnar/expression.h"
#include "common/datum.h"
#include "common/schema.h"
#include "jit/access_path_spec.h"

namespace raw {

/// What a fused pipeline kernel emits.
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

/// One column a fused kernel consumes. Dense inputs arrive through
/// ctx->in_dense (already-converted full columns from the shred cache);
/// file inputs are read by the embedded scan plug-in. The j-th non-dense
/// input corresponds to scan.outputs[j].
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

/// Complete description of a fused scan→filter→project→aggregate kernel —
/// the pipeline-fusion generalization of AccessPathSpec. The template-cache
/// contract: everything the generated loop hard-codes is captured by
/// CacheKey(), so specs with equal keys are interchangeable compiled
/// artifacts. Predicate literal values are the one part of a spec the code
/// does not hard-code: the kernel loads them from ctx->pred_literals (filled
/// by FusedPipelineOperator from `predicates`), so specs that differ only in
/// literal values share one kernel.
struct PipelineSpec {
  /// The embedded scan access path. Its outputs are exactly the non-dense
  /// inputs, in input order.
  AccessPathSpec scan;

  /// All columns the pipeline touches, ascending by `column`.
  std::vector<PipelineInput> inputs;

  /// Conjunctive filters in evaluation order: dense predicates first (they
  /// run in the vectorizable mask prepass), then file-column predicates in
  /// input order (each tested right after its column is parsed, skipping the
  /// remaining parse work for failing rows).
  std::vector<PipelinePredicate> predicates;

  PipelineOutputMode mode = PipelineOutputMode::kProject;

  /// kProject: input indices to emit, in output order.
  std::vector<int> projections;

  /// kAggregate: the aggregates to fold.
  std::vector<PipelineAgg> aggs;

  /// Stable identity for the template cache. Namespaced ("pipe1|...") so
  /// fused kernels never collide with plain scan kernels. Lists the scan
  /// key, each input's column, type and denseness, each predicate's input,
  /// op and canonical literal *type* (never its value), the output mode,
  /// the projections and the aggregates.
  std::string CacheKey() const;

  std::string ToString() const { return CacheKey(); }
};

/// Number of partial-state columns each aggregate occupies in a fused
/// partial row: count (int64), dacc (float64), iacc (int64), init (int64).
inline constexpr int kFusedAggStateCols = 4;

/// Schema of the partial rows a fused aggregate kernel emits (one row per
/// morsel): kFusedAggStateCols fields per aggregate.
Schema FusedAggPartialSchema(const std::vector<PipelineAgg>& aggs);

/// Planner → driver request to build a fused pipeline over one table scan.
/// The driver embeds its scan access path, compiles through the shared
/// template cache, and returns the scan-level operator (kProject: filtered
/// projected rows; kAggregate: one partial row per morsel, in morsel order).
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

}  // namespace raw

#endif  // RAW_JIT_PIPELINE_SPEC_H_
