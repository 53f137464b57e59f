#ifndef RAW_JIT_CODEGEN_H_
#define RAW_JIT_CODEGEN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "jit/access_path_spec.h"

namespace raw {

/// Emits the complete C++ translation unit implementing `spec` — a file-,
/// schema- and query-specific scan kernel exporting RAW_JIT_ENTRY_SYMBOL.
/// Dispatches to the per-format plug-in below.
StatusOr<std::string> GenerateScanSource(const AccessPathSpec& spec);

/// Format plug-ins (§3: "a file-format-specific plug-in is activated for
/// each scan operator specification").
StatusOr<std::string> GenerateCsvScanSource(const AccessPathSpec& spec);
StatusOr<std::string> GenerateBinScanSource(const AccessPathSpec& spec);
StatusOr<std::string> GenerateRefScanSource(const AccessPathSpec& spec);

class SourceBuilder;

namespace jit_internal {
/// C type spelling for a DataType ("int32_t", "double", ...).
std::string_view CTypeName(DataType type);

/// Shared CSV emitters (csv_codegen.cc owns the definitions; the fused
/// pipeline generator reuses them so fused and plain kernels parse fields
/// with byte-identical code).
///
/// Emits inline code parsing the field at `p` into `target`, leaving `p` at
/// the field terminator (delimiter or newline).
void EmitCsvParseField(SourceBuilder* src, DataType type,
                       const std::string& target, char delim);
/// True when parsing `outputs` calls std::from_chars (a float field), so the
/// TU must include <charconv>; integer-only CSV kernels include C headers
/// alone and link without the C++ runtime.
bool CsvParsesFloats(const std::vector<OutputField>& outputs);
/// Emits code skipping `count` fields including their trailing delimiter.
void EmitCsvSkipFields(SourceBuilder* src, int count, char delim);
}  // namespace jit_internal

}  // namespace raw

#endif  // RAW_JIT_CODEGEN_H_
