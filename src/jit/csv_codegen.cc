#include <algorithm>
#include <cstdio>
#include <set>

#include "jit/codegen.h"
#include "jit/source_builder.h"

namespace raw {

namespace jit_internal {
std::string_view CTypeName(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "bool";
    case DataType::kInt32:
      return "int32_t";
    case DataType::kInt64:
      return "int64_t";
    case DataType::kFloat32:
      return "float";
    case DataType::kFloat64:
      return "double";
    case DataType::kString:
      return "char*";
  }
  return "?";
}
/// Emits inline code parsing the field at `p` into `target`, leaving `p` at
/// the field terminator (delimiter or newline). Single fused find-end+convert
/// pass for integers; two-pass std::from_chars for floats. Shared with the
/// fused-pipeline generator (pipeline_codegen.cc) so both kernel families
/// parse fields with identical code.
void EmitCsvParseField(SourceBuilder* src, DataType type,
                       const std::string& target, char delim) {
  std::string d = std::to_string(static_cast<int>(delim));
  switch (type) {
    case DataType::kInt32:
    case DataType::kInt64: {
      const char* ctype = type == DataType::kInt32 ? "int32_t" : "int64_t";
      src->Open("{");
      src->Line("bool neg = (*p == '-');");
      src->Line("if (neg) ++p;");
      src->Line(std::string(ctype) + " v = 0;");
      src->Line("while (*p != " + d + " && *p != '\\n') { v = v * 10 + (*p - '0'); ++p; }");
      src->Line(target + " = neg ? -v : v;");
      src->Close();
      break;
    }
    case DataType::kFloat32:
    case DataType::kFloat64: {
      const char* ctype = type == DataType::kFloat32 ? "float" : "double";
      src->Open("{");
      src->Line("const char* fs = p;");
      src->Line("while (*p != " + d + " && *p != '\\n') ++p;");
      src->Line(std::string(ctype) + " v = 0;");
      src->Line("std::from_chars(fs, p, v);");
      src->Line(target + " = v;");
      src->Close();
      break;
    }
    case DataType::kBool: {
      src->Open("{");
      src->Line("bool v = (*p == '1' || *p == 't');");
      src->Line("while (*p != " + d + " && *p != '\\n') ++p;");
      src->Line(target + " = v;");
      src->Close();
      break;
    }
    case DataType::kString:
      // Strings are handled by the interpreted path; the planner never asks
      // the CSV JIT plug-in for string outputs.
      break;
  }
}

bool CsvParsesFloats(const std::vector<OutputField>& outputs) {
  return std::any_of(outputs.begin(), outputs.end(), [](const OutputField& f) {
    return f.type == DataType::kFloat32 || f.type == DataType::kFloat64;
  });
}

/// Emits code skipping `count` fields including their trailing delimiter.
/// Small counts unroll fully (§4.1: "the column loop ... can be unrolled");
/// larger gaps use a constant-trip-count loop the compiler unrolls itself.
void EmitCsvSkipFields(SourceBuilder* src, int count, char delim) {
  if (count <= 0) return;
  std::string d = std::to_string(static_cast<int>(delim));
  std::string one = "while (*p != " + d + ") ++p; ++p;";
  if (count <= 8) {
    for (int i = 0; i < count; ++i) src->Line(one);
  } else {
    src->Open("for (int s = 0; s < " + std::to_string(count) + "; ++s) {");
    src->Line(one);
    src->Close();
  }
}

}  // namespace jit_internal

using jit_internal::CTypeName;

namespace {

std::string Fmt(const char* fmt, long long a, long long b = 0,
                long long c = 0) {
  char buf[256];
  snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

void EmitParseField(SourceBuilder* src, DataType type,
                    const std::string& target, char delim) {
  jit_internal::EmitCsvParseField(src, type, target, delim);
}

void EmitSkipFields(SourceBuilder* src, int count, char delim) {
  jit_internal::EmitCsvSkipFields(src, count, delim);
}

/// Emits the standard prelude of every generated TU. <charconv> is included
/// only when a float field is parsed (std::from_chars): integer-only kernels
/// include C headers alone, compile faster and link without the C++ runtime.
void EmitPrelude(SourceBuilder* src, const AccessPathSpec& spec) {
  src->Line("// Generated by RAW JIT access-path compiler.");
  src->Line("// spec: " + spec.CacheKey());
  src->Line("#include <stdint.h>");
  src->Line("#include <string.h>");
  if (jit_internal::CsvParsesFloats(spec.outputs)) {
    src->Line("#include <charconv>");
  }
  src->Line("#include \"jit/jit_abi.h\"");
  src->Blank();
}

/// Declares typed aliases for the output buffers: outK.
void EmitOutputBindings(SourceBuilder* src, const AccessPathSpec& spec) {
  for (size_t j = 0; j < spec.outputs.size(); ++j) {
    std::string t(CTypeName(spec.outputs[j].type));
    src->Line(t + "* const out" + std::to_string(j) + " = (" + t +
              "*)ctx->out_columns[" + std::to_string(j) + "];");
  }
}

StatusOr<std::string> GenerateCsvSequential(const AccessPathSpec& spec) {
  SourceBuilder src;
  EmitPrelude(&src, spec);
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  src.Line("const char* const data = ctx->file_data;");
  src.Line("const char* const end = data + ctx->file_size;");
  src.Line("const char* p = data + ctx->byte_cursor;");
  src.Line("int64_t row = ctx->row_cursor;");
  src.Line("int64_t produced = 0;");
  EmitOutputBindings(&src, spec);
  const int num_slots = static_cast<int>(spec.pmap_tracked.size());
  if (num_slots > 0) {
    src.Line("uint64_t* const pmap_pos = ctx->pmap_positions;");
    src.Line("uint64_t* const pmap_rs = ctx->pmap_row_starts;");
  }
  src.Blank();
  src.Open("while (produced < ctx->max_rows && p < end) {");
  if (num_slots > 0) {
    src.Line("if (pmap_rs) pmap_rs[produced] = (uint64_t)(p - data);");
  }

  // Build the per-column action plan: union of outputs and tracked columns.
  struct Action {
    int column;
    int output = -1;  // index into spec.outputs
    int slot = -1;    // index into spec.pmap_tracked
  };
  std::vector<Action> actions;
  for (size_t j = 0; j < spec.outputs.size(); ++j) {
    actions.push_back({spec.outputs[j].column, static_cast<int>(j), -1});
  }
  for (int s = 0; s < num_slots; ++s) {
    int col = spec.pmap_tracked[static_cast<size_t>(s)];
    auto it = std::find_if(actions.begin(), actions.end(),
                           [col](const Action& a) { return a.column == col; });
    if (it != actions.end()) {
      it->slot = s;
    } else {
      actions.push_back({col, -1, s});
    }
  }
  std::sort(actions.begin(), actions.end(),
            [](const Action& a, const Action& b) { return a.column < b.column; });

  int cursor_col = 0;
  for (size_t a = 0; a < actions.size(); ++a) {
    const Action& act = actions[a];
    EmitSkipFields(&src, act.column - cursor_col, spec.delimiter);
    cursor_col = act.column;
    src.Line(Fmt("// column %lld", act.column));
    if (act.slot >= 0) {
      src.Line(Fmt("if (pmap_pos) pmap_pos[produced * %lld + %lld] = "
                   "(uint64_t)(p - data);",
                   num_slots, act.slot));
    }
    const bool last = (a + 1 == actions.size());
    if (act.output >= 0) {
      EmitParseField(&src, spec.outputs[static_cast<size_t>(act.output)].type,
                     "out" + std::to_string(act.output) + "[produced]",
                     spec.delimiter);
      if (!last) {
        src.Line("++p;  // consume delimiter");
        cursor_col = act.column + 1;
      }
    } else if (!last) {
      // Tracked-only column mid-row: position recorded, skip its value.
      EmitSkipFields(&src, 1, spec.delimiter);
      cursor_col = act.column + 1;
    } else {
      // Tracked-only column at the end of the needed set: nothing to parse.
    }
  }
  // Advance to the start of the next row.
  src.Line("const char* nl = (const char*)memchr(p, '\\n', (size_t)(end - p));");
  src.Line("p = nl ? nl + 1 : end;");
  src.Line("ctx->out_row_ids[produced] = row;");
  src.Line("++row;");
  src.Line("++produced;");
  src.Close();  // while
  src.Blank();
  src.Line("ctx->byte_cursor = (uint64_t)(p - data);");
  src.Line("ctx->row_cursor = row;");
  src.Line("ctx->rows_produced = produced;");
  src.Line("return produced;");
  src.Close();  // function
  return src.str();
}

StatusOr<std::string> GenerateCsvByPosition(const AccessPathSpec& spec) {
  for (const OutputField& f : spec.outputs) {
    if (f.column < spec.anchor_column) {
      return Status::InvalidArgument(
          "by-position CSV kernel cannot read left of the anchor column");
    }
  }
  SourceBuilder src;
  EmitPrelude(&src, spec);
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  src.Line("const char* const data = ctx->file_data;");
  src.Line("int64_t i = ctx->input_cursor;");
  src.Line("int64_t produced = 0;");
  EmitOutputBindings(&src, spec);
  src.Blank();
  src.Open("while (produced < ctx->max_rows && i < ctx->num_inputs) {");
  src.Line("const char* p = data + ctx->in_positions[i];");
  int cursor_col = spec.anchor_column;
  for (size_t j = 0; j < spec.outputs.size(); ++j) {
    const OutputField& f = spec.outputs[j];
    EmitSkipFields(&src, f.column - cursor_col, spec.delimiter);
    src.Line(Fmt("// column %lld", f.column));
    EmitParseField(&src, f.type, "out" + std::to_string(j) + "[produced]",
                   spec.delimiter);
    if (j + 1 < spec.outputs.size()) {
      src.Line("++p;  // consume delimiter");
      cursor_col = f.column + 1;
    }
  }
  src.Line("ctx->out_row_ids[produced] = ctx->in_row_ids[i];");
  src.Line("++i;");
  src.Line("++produced;");
  src.Close();
  src.Blank();
  src.Line("ctx->input_cursor = i;");
  src.Line("ctx->rows_produced = produced;");
  src.Line("return produced;");
  src.Close();
  return src.str();
}

}  // namespace

StatusOr<std::string> GenerateCsvScanSource(const AccessPathSpec& spec) {
  if (spec.outputs.empty()) {
    return Status::InvalidArgument("CSV kernel needs at least one output");
  }
  for (const OutputField& f : spec.outputs) {
    if (f.type == DataType::kString) {
      // Variable-length payloads cross the C ABI poorly; the planner routes
      // string columns through the interpreted scan instead.
      return Status::InvalidArgument(
          "CSV JIT kernels do not materialize string columns");
    }
  }
  for (size_t j = 1; j < spec.outputs.size(); ++j) {
    if (spec.outputs[j].column <= spec.outputs[j - 1].column) {
      return Status::InvalidArgument("CSV outputs must be sorted by column");
    }
  }
  switch (spec.mode) {
    case ScanMode::kSequential:
      return GenerateCsvSequential(spec);
    case ScanMode::kByPosition:
      return GenerateCsvByPosition(spec);
    case ScanMode::kByRowIndex:
      return Status::InvalidArgument(
          "CSV has no deterministic row offsets; use kByPosition");
  }
  return Status::Internal("bad scan mode");
}

}  // namespace raw
