#ifndef RAW_JIT_PIPELINE_CODEGEN_H_
#define RAW_JIT_PIPELINE_CODEGEN_H_

#include <string>

#include "common/status.h"
#include "common/statusor.h"
#include "jit/pipeline_spec.h"

namespace raw {

/// Emits the complete C++ translation unit implementing `spec` — a file-,
/// schema- and query-specific kernel exporting RAW_JIT_ENTRY_SYMBOL.
/// Dispatches to the per-format plug-in through
/// FormatDriver::EmitJitPipelineSource ("a file-format-specific plug-in is
/// activated for each scan operator specification", §3); a driver without
/// one reports NotImplemented and the planner keeps the query interpreted.
StatusOr<std::string> GeneratePipelineSource(const PipelineSpec& spec);

/// Built-in format plug-ins, one per format, covering its scan modes (CSV:
/// sequential and by-position; binary and REF: sequential and by-row-index).
/// Each composes the format's scan loop with the generated predicate /
/// projection / aggregate bodies:
///  * predicate literals are read from ctx->pred_literals into loop-invariant
///    locals, so the source depends on each literal's type, never its value;
///  * dense (already-cached) input predicates run in a block mask prepass
///    emitted twice — a scalar copy and an AVX2 target-attribute copy chosen
///    at runtime from ctx->kernel_tier (clamped by the host to what the CPU
///    supports) — with exact typed compares, so both copies agree bit for
///    bit;
///  * file-column predicates are tested right after their field is read,
///    skipping the remaining read work for failing rows;
///  * aggregate updates replicate AggAccumulator's int/numeric paths
///    exactly, leaving mergeable partial state in the context arrays;
///  * sequential CSV kernels are plain projections, optionally recording
///    the positional map (PipelineSpec::pmap_tracked).
StatusOr<std::string> GenerateCsvPipelineSource(const PipelineSpec& spec);
StatusOr<std::string> GenerateBinPipelineSource(const PipelineSpec& spec);
StatusOr<std::string> GenerateRefPipelineSource(const PipelineSpec& spec);

}  // namespace raw

#endif  // RAW_JIT_PIPELINE_CODEGEN_H_
