#ifndef RAW_ENGINE_FORMATS_BUILTIN_H_
#define RAW_ENGINE_FORMATS_BUILTIN_H_

namespace raw {

/// Registers the built-in format drivers (csv, bin, ref, jsonl, csv.gz) in
/// FormatRegistry::Global(). Idempotent and thread-safe; runs automatically
/// when a Catalog is constructed. Call it explicitly before using registry
/// consumers without an engine (JIT codegen, the cost model, direct
/// FusedPipelineOperator use).
void EnsureBuiltinFormatDriversRegistered();

}  // namespace raw

#endif  // RAW_ENGINE_FORMATS_BUILTIN_H_
