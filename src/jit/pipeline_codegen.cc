#include "jit/pipeline_codegen.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>

#include "format/format_driver.h"
#include "jit/source_builder.h"

namespace raw {

namespace {

/// C type spelling for a DataType ("int32_t", "double", ...).
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

std::string_view CompareOpCpp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

/// The RawJitLiteral member holding a literal of `type` (a canonicalized
/// literal is always one of the four fusable numeric types).
std::string_view LiteralMember(DataType type) {
  switch (type) {
    case DataType::kInt32:
      return "i32";
    case DataType::kInt64:
      return "i64";
    case DataType::kFloat32:
      return "f32";
    default:
      return "f64";
  }
}

DataType ExpectedLiteralType(DataType column_type) {
  switch (column_type) {
    case DataType::kInt32:
      return DataType::kInt32;
    case DataType::kInt64:
      return DataType::kInt64;
    case DataType::kFloat32:
      return DataType::kFloat32;
    default:
      return DataType::kFloat64;
  }
}

bool IsFusableType(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64 ||
         type == DataType::kFloat32 || type == DataType::kFloat64;
}

bool IsIntType(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64;
}

// --- CSV field emitters ------------------------------------------------------

/// Emits inline code parsing the field at `p` into `target`, leaving `p` at
/// the field terminator (delimiter or newline). Single fused find-end+convert
/// pass for integers; two-pass std::from_chars for floats.
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
      // Rejected by ValidateAndLayOut: string columns take the interpreted
      // path.
      break;
  }
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

/// Derived layout shared by every format generator.
struct PipelineLayout {
  std::vector<int> file_inputs;  // input index of each file input, in order
  std::vector<int> file_rank;    // per input: index into file_inputs, or -1
  std::vector<const PipelinePredicate*> dense_preds;
  // Per input: predicates on that (file) input, in spec order.
  std::vector<std::vector<const PipelinePredicate*>> file_preds;
  std::set<int> dense_value_inputs;  // dense inputs read in the main loop
};

Status ValidateAndLayOut(const PipelineSpec& spec, PipelineLayout* out) {
  if (spec.inputs.empty()) {
    return Status::InvalidArgument("pipeline kernel needs at least one input");
  }
  const int num_inputs = static_cast<int>(spec.inputs.size());
  out->file_rank.assign(spec.inputs.size(), -1);
  out->file_preds.assign(spec.inputs.size(), {});
  for (int k = 0; k < num_inputs; ++k) {
    const PipelineInput& in = spec.inputs[static_cast<size_t>(k)];
    // Bool columns ride along in projections; predicates and aggregates
    // take numeric columns only (checked below).
    if (!IsFusableType(in.type) && in.type != DataType::kBool) {
      return Status::InvalidArgument(
          "pipeline kernels handle fixed-width columns only");
    }
    if (!in.dense) {
      out->file_rank[static_cast<size_t>(k)] =
          static_cast<int>(out->file_inputs.size());
      out->file_inputs.push_back(k);
    }
  }
  if (out->file_inputs.empty()) {
    return Status::InvalidArgument(
        "pipeline kernel needs at least one file-read input");
  }
  if (!spec.pmap_tracked.empty() &&
      (spec.format != FileFormat::kCsv ||
       spec.scan_mode != ScanMode::kSequential)) {
    return Status::InvalidArgument(
        "only sequential CSV kernels track positional-map columns");
  }
  auto numeric_input = [&](int k) {
    return k >= 0 && k < num_inputs &&
           IsFusableType(spec.inputs[static_cast<size_t>(k)].type);
  };
  for (const PipelinePredicate& p : spec.predicates) {
    if (!numeric_input(p.input)) {
      return Status::InvalidArgument(
          "pipeline predicate input out of range or not numeric");
    }
    const PipelineInput& in = spec.inputs[static_cast<size_t>(p.input)];
    if (p.literal.type() != ExpectedLiteralType(in.type)) {
      return Status::InvalidArgument(
          "fused predicate literal not canonicalized to the column type");
    }
    if (in.dense) {
      out->dense_preds.push_back(&p);
    } else {
      out->file_preds[static_cast<size_t>(p.input)].push_back(&p);
    }
  }
  auto note_value_input = [&](int k) {
    if (spec.inputs[static_cast<size_t>(k)].dense) {
      out->dense_value_inputs.insert(k);
    }
  };
  switch (spec.mode) {
    case PipelineOutputMode::kProject:
      if (spec.projections.empty()) {
        return Status::InvalidArgument("fused projection list is empty");
      }
      if (!spec.aggs.empty()) {
        return Status::InvalidArgument(
            "project-mode pipeline cannot carry aggregates");
      }
      for (int m : spec.projections) {
        if (m < 0 || m >= num_inputs) {
          return Status::InvalidArgument("fused projection out of range");
        }
        note_value_input(m);
      }
      break;
    case PipelineOutputMode::kAggregate:
      if (spec.aggs.empty()) {
        return Status::InvalidArgument("fused aggregate list is empty");
      }
      for (const PipelineAgg& a : spec.aggs) {
        if (a.kind == AggKind::kCount && a.input < 0) continue;
        if (!numeric_input(a.input)) {
          return Status::InvalidArgument(
              "fused aggregate input out of range or not numeric");
        }
        note_value_input(a.input);
      }
      break;
  }
  return Status::OK();
}

/// `needs_charconv`: the TU parses CSV float fields (std::from_chars). Every
/// other kernel includes C headers only, so it compiles faster and links
/// without the C++ runtime (see CcCompiler).
void EmitPrelude(SourceBuilder* src, const PipelineSpec& spec,
                 std::string_view plugin, bool needs_charconv = false) {
  src->Line("// Generated by RAW JIT pipeline compiler (" +
            std::string(plugin) + " plug-in).");
  src->Line("// spec: " + spec.CacheKey());
  src->Line("#include <stdint.h>");
  src->Line("#include <string.h>");
  if (needs_charconv) src->Line("#include <charconv>");
  src->Line("#include \"jit/jit_abi.h\"");
  src->Blank();
}

/// True when a CSV kernel for `spec` parses a float field.
bool CsvParsesFloats(const PipelineSpec& spec, const PipelineLayout& lay) {
  for (int k : lay.file_inputs) {
    const DataType type = spec.inputs[static_cast<size_t>(k)].type;
    if (type == DataType::kFloat32 || type == DataType::kFloat64) return true;
  }
  return false;
}

/// A predicate's ctx->pred_literals slot: its index in spec.predicates.
std::string LiteralSlot(const PipelineSpec& spec, const PipelinePredicate* p) {
  return std::to_string(p - spec.predicates.data());
}

/// Local name of a predicate's literal: lit<slot>.
std::string LiteralName(const PipelineSpec& spec, const PipelinePredicate* p) {
  return "lit" + LiteralSlot(spec, p);
}

/// Loads each predicate's literal from its run-time slot into a const local
/// before the loops, so compares stay against a loop-invariant value.
void EmitLiteralBindings(SourceBuilder* src, const PipelineSpec& spec,
                         const std::vector<const PipelinePredicate*>& preds) {
  for (const PipelinePredicate* p : preds) {
    const DataType type = p->literal.type();
    src->Line("const " + std::string(CTypeName(type)) + " " +
              LiteralName(spec, p) + " = ctx->pred_literals[" +
              LiteralSlot(spec, p) + "]." +
              std::string(LiteralMember(type)) + ";");
  }
}

/// All file-column predicates, in input order.
std::vector<const PipelinePredicate*> FilePredicates(
    const PipelineLayout& lay) {
  std::vector<const PipelinePredicate*> out;
  for (const auto& preds : lay.file_preds) {
    out.insert(out.end(), preds.begin(), preds.end());
  }
  return out;
}

/// `if (!(<value> <op> lit<slot>)) continue;` for each of `preds`.
void EmitFileTests(SourceBuilder* src, const PipelineSpec& spec,
                   const std::vector<const PipelinePredicate*>& preds,
                   const std::string& value) {
  for (const PipelinePredicate* p : preds) {
    src->Line("if (!(" + value + " " + std::string(CompareOpCpp(p->op)) +
              " " + LiteralName(spec, p) + ")) continue;");
  }
}

/// Emits the dense-predicate mask body once; callers wrap it in the scalar
/// and AVX2-target copies. `row_expr` maps (base, t) to the dense columns'
/// row index and may reference `ctx`.
void EmitMaskBody(SourceBuilder* src, const PipelineSpec& spec,
                  const PipelineLayout& lay, const std::string& row_expr) {
  src->Line("uint8_t* const m = ctx->sel_mask;");
  std::set<int> bound;
  for (const PipelinePredicate* p : lay.dense_preds) bound.insert(p->input);
  for (int k : bound) {
    std::string t(CTypeName(spec.inputs[static_cast<size_t>(k)].type));
    src->Line("const " + t + "* const d" + std::to_string(k) + " = (const " +
              t + "*)ctx->in_dense[" + std::to_string(k) + "];");
  }
  EmitLiteralBindings(src, spec, lay.dense_preds);
  src->Open("for (int64_t t = 0; t < n; ++t) {");
  src->Line("const int64_t r = " + row_expr + ";");
  src->Line("uint8_t keep = 1;");
  for (const PipelinePredicate* p : lay.dense_preds) {
    src->Line("keep &= (uint8_t)(d" + std::to_string(p->input) + "[r] " +
              std::string(CompareOpCpp(p->op)) + " " + LiteralName(spec, p) +
              ");");
  }
  src->Line("m[t] = keep;");
  src->Close();
}

/// Emits the scalar + AVX2 mask functions and the runtime dispatcher. The
/// two copies share one body with exact typed compares, so either produces
/// the same mask bit for bit. ctx->kernel_tier picks the copy: the host
/// clamps it to what the CPU supports, and RAW_KERNELS can force the scalar
/// copy.
void EmitMaskFunctions(SourceBuilder* src, const PipelineSpec& spec,
                       const PipelineLayout& lay, const std::string& row_expr) {
  src->Open(
      "static void raw_eval_mask_scalar(const RawJitContext* ctx, int64_t "
      "base, int64_t n) {");
  EmitMaskBody(src, spec, lay, row_expr);
  src->Close();
  src->Blank();
  src->Line("#if defined(__x86_64__) || defined(__i386__)");
  src->Open(
      "__attribute__((target(\"avx2\"))) static void "
      "raw_eval_mask_avx2(const RawJitContext* ctx, int64_t base, int64_t n) "
      "{");
  EmitMaskBody(src, spec, lay, row_expr);
  src->Close();
  src->Line("#endif");
  src->Blank();
  src->Line(
      "typedef void (*RawMaskFn)(const RawJitContext*, int64_t, int64_t);");
  src->Open("static RawMaskFn raw_resolve_mask(const RawJitContext* ctx) {");
  src->Line("#if defined(__x86_64__) || defined(__i386__)");
  src->Line("if (ctx->kernel_tier >= 3) return &raw_eval_mask_avx2;");
  src->Line("#endif");
  src->Line("(void)ctx;");
  src->Line("return &raw_eval_mask_scalar;");
  src->Close();
  src->Blank();
}

/// Typed bindings for dense columns the main loop reads (aggregate inputs /
/// projections living in the shred cache).
void EmitDenseValueBindings(SourceBuilder* src, const PipelineSpec& spec,
                            const PipelineLayout& lay) {
  for (int k : lay.dense_value_inputs) {
    std::string t(CTypeName(spec.inputs[static_cast<size_t>(k)].type));
    src->Line("const " + t + "* const d" + std::to_string(k) + " = (const " +
              t + "*)ctx->in_dense[" + std::to_string(k) + "];");
  }
}

void EmitAggLoads(SourceBuilder* src, const PipelineSpec& spec) {
  for (size_t s = 0; s < spec.aggs.size(); ++s) {
    std::string i = std::to_string(s);
    src->Line("int64_t acc_cnt_" + i + " = ctx->agg_count[" + i + "];");
    src->Line("double acc_d_" + i + " = ctx->agg_dacc[" + i + "];");
    src->Line("int64_t acc_i_" + i + " = ctx->agg_iacc[" + i + "];");
    src->Line("int64_t acc_b_" + i + " = (int64_t)ctx->agg_init[" + i + "];");
  }
}

void EmitAggStores(SourceBuilder* src, const PipelineSpec& spec) {
  for (size_t s = 0; s < spec.aggs.size(); ++s) {
    std::string i = std::to_string(s);
    src->Line("ctx->agg_count[" + i + "] = acc_cnt_" + i + ";");
    src->Line("ctx->agg_dacc[" + i + "] = acc_d_" + i + ";");
    src->Line("ctx->agg_iacc[" + i + "] = acc_i_" + i + ";");
    src->Line("ctx->agg_init[" + i + "] = (uint8_t)acc_b_" + i + ";");
  }
}

/// Per-row aggregate update replicating AggAccumulator::UpdateIntT /
/// UpdateNumericT exactly (including the float-SUM double+int64 double
/// write), so fused partials merge into bit-identical finals.
void EmitAggUpdate(SourceBuilder* src, const PipelineSpec& spec, size_t s,
                   const std::string& val) {
  const PipelineAgg& agg = spec.aggs[s];
  std::string i = std::to_string(s);
  if (agg.kind == AggKind::kCount) {
    src->Line("++acc_cnt_" + i + ";");
    return;
  }
  DataType in_type = spec.inputs[static_cast<size_t>(agg.input)].type;
  src->Line("++acc_cnt_" + i + ";");
  if (IsIntType(in_type)) {
    switch (agg.kind) {
      case AggKind::kSum:
        src->Line("acc_i_" + i + " += (int64_t)(" + val + ");");
        break;
      case AggKind::kAvg:
        src->Line("acc_d_" + i + " += (double)(" + val + ");");
        break;
      case AggKind::kMax:
        src->Open("{");
        src->Line("const int64_t xv = (int64_t)(" + val + ");");
        src->Line("if (!acc_b_" + i + " || xv > acc_i_" + i + ") acc_i_" + i +
                  " = xv;");
        src->Line("acc_b_" + i + " = 1;");
        src->Close();
        break;
      case AggKind::kMin:
        src->Open("{");
        src->Line("const int64_t xv = (int64_t)(" + val + ");");
        src->Line("if (!acc_b_" + i + " || xv < acc_i_" + i + ") acc_i_" + i +
                  " = xv;");
        src->Line("acc_b_" + i + " = 1;");
        src->Close();
        break;
      case AggKind::kCount:
        break;
    }
    return;
  }
  switch (agg.kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      src->Open("{");
      src->Line("const double xv = (double)(" + val + ");");
      src->Line("acc_d_" + i + " += xv;");
      src->Line("acc_i_" + i + " += (int64_t)xv;");
      src->Close();
      break;
    case AggKind::kMax:
      src->Open("{");
      src->Line("const double xv = (double)(" + val + ");");
      src->Line("if (!acc_b_" + i + " || xv > acc_d_" + i + ") acc_d_" + i +
                " = xv;");
      src->Line("acc_b_" + i + " = 1;");
      src->Close();
      break;
    case AggKind::kMin:
      src->Open("{");
      src->Line("const double xv = (double)(" + val + ");");
      src->Line("if (!acc_b_" + i + " || xv < acc_d_" + i + ") acc_d_" + i +
                " = xv;");
      src->Line("acc_b_" + i + " = 1;");
      src->Close();
      break;
    case AggKind::kCount:
      break;
  }
}

/// Typed bindings for the projection output buffers (po0..poM, out_ids),
/// their capacity and the produced-row count. Locals, not ctx fields: the
/// row loop's stores could alias ctx and force a reload per row.
void EmitProjOutputBindings(SourceBuilder* src, const PipelineSpec& spec) {
  for (size_t m = 0; m < spec.projections.size(); ++m) {
    int k = spec.projections[m];
    std::string t(CTypeName(spec.inputs[static_cast<size_t>(k)].type));
    src->Line(t + "* const po" + std::to_string(m) + " = (" + t +
              "*)ctx->out_columns[" + std::to_string(m) + "];");
  }
  src->Line("int64_t* const out_ids = ctx->out_row_ids;");
  src->Line("const int64_t max_rows = ctx->max_rows;");
  src->Line("int64_t produced = 0;");
}

/// v<k>: the local file input `k` is read into.
std::string FileValue(int k) {
  std::string name = "v";
  name += std::to_string(k);
  return name;
}

/// The value of input `k` inside the row loop: its read local v<k> for file
/// inputs, a dense-column load at global row `rid_expr` for cached inputs.
std::string InputValueExpr(const PipelineSpec& spec, int k,
                           const std::string& rid_expr) {
  if (spec.inputs[static_cast<size_t>(k)].dense) {
    return "d" + std::to_string(k) + "[" + rid_expr + "]";
  }
  return FileValue(k);
}

/// `T v<k>;` — the local a file input is read into.
std::string DeclareFileValue(const PipelineSpec& spec, int k) {
  return std::string(CTypeName(spec.inputs[static_cast<size_t>(k)].type)) +
         " " + FileValue(k) + ";";
}

/// Stores one projected row at `produced` and counts it.
void EmitProjectionStores(SourceBuilder* src, const PipelineSpec& spec,
                          const std::string& rid_expr) {
  for (size_t m = 0; m < spec.projections.size(); ++m) {
    src->Line("po" + std::to_string(m) + "[produced] = " +
              InputValueExpr(spec, spec.projections[m], rid_expr) + ";");
  }
  src->Line("out_ids[produced] = " + rid_expr + ";");
  src->Line("++produced;");
}

/// Emits the aggregate update or projection stores of one surviving row;
/// `rid_expr` is its global row id.
void EmitRowOutputs(SourceBuilder* src, const PipelineSpec& spec,
                    const std::string& rid_expr) {
  if (spec.mode == PipelineOutputMode::kProject) {
    EmitProjectionStores(src, spec, rid_expr);
    return;
  }
  for (size_t s = 0; s < spec.aggs.size(); ++s) {
    const PipelineAgg& agg = spec.aggs[s];
    std::string val =
        agg.input >= 0 ? InputValueExpr(spec, agg.input, rid_expr) : "0";
    EmitAggUpdate(src, spec, s, val);
  }
}

/// Emits the row loop advancing `cursor` (a local the caller declared) to
/// `end`, saving it in `cursor_field` when the outputs fill mid-block. A
/// projection without predicates emits every row, so its loop is flat and
/// countable; any other kernel runs in blocks of at most max_rows rows,
/// each filtered first by the mask prepass when there are dense
/// predicates. `emit_row(src, idx)` emits the body of the row at index
/// expression `idx`: its row id `rid`, its reads and predicate tests
/// (`continue` skips the row) — this function appends the outputs.
void EmitRowLoop(
    SourceBuilder* src, const PipelineSpec& spec, const PipelineLayout& lay,
    const std::string& cursor, const std::string& end,
    const std::string& cursor_field,
    const std::function<void(SourceBuilder*, const std::string&)>& emit_row) {
  const bool project = spec.mode == PipelineOutputMode::kProject;
  if (project && spec.predicates.empty()) {
    // Bound the trip count by the output space up front.
    src->Line("int64_t stop = " + end + ";");
    src->Line("if (stop - " + cursor + " > max_rows) stop = " + cursor +
              " + max_rows;");
    src->Open("for (; " + cursor + " < stop; ++" + cursor + ") {");
    emit_row(src, cursor);
    EmitRowOutputs(src, spec, "rid");
    src->Close();
    return;
  }
  const bool masked = !lay.dense_preds.empty();
  src->Open("while (" + cursor + " < " + end +
            (project ? " && produced < max_rows" : "") + ") {");
  src->Line("int64_t block = " + end + " - " + cursor + ";");
  src->Line("if (block > ctx->max_rows) block = ctx->max_rows;");
  if (masked) src->Line("mask_fn(ctx, " + cursor + ", block);");
  src->Open("for (int64_t t = 0; t < block; ++t) {");
  if (masked) src->Line("if (!ctx->sel_mask[t]) continue;");
  emit_row(src, cursor + " + t");
  EmitRowOutputs(src, spec, "rid");
  if (project) {
    src->Open("if (produced == max_rows) {");
    src->Line(cursor_field + " = " + cursor + " + t + 1;");
    src->Line("ctx->rows_produced = produced;");
    src->Line("return produced;");
    src->Close();
  }
  src->Close();  // for
  src->Line(cursor + " += block;");
  src->Close();  // while
}

/// Emits the locals every kernel body starts with: aggregate state or
/// projection outputs, dense-column and literal bindings, the mask resolver.
void EmitBodySetup(SourceBuilder* src, const PipelineSpec& spec,
                   const PipelineLayout& lay) {
  if (spec.mode == PipelineOutputMode::kAggregate) {
    EmitAggLoads(src, spec);
  } else {
    EmitProjOutputBindings(src, spec);
  }
  EmitDenseValueBindings(src, spec, lay);
  EmitLiteralBindings(src, spec, FilePredicates(lay));
  if (!lay.dense_preds.empty()) {
    src->Line("const RawMaskFn mask_fn = raw_resolve_mask(ctx);");
  }
  src->Blank();
}

/// Emits the kernel's return: stores aggregate state and reports the inputs
/// consumed (`consumed_expr`), or reports the rows produced.
void EmitBodyTail(SourceBuilder* src, const PipelineSpec& spec,
                  const std::string& consumed_expr) {
  if (spec.mode == PipelineOutputMode::kAggregate) {
    EmitAggStores(src, spec);
    src->Line("ctx->rows_produced = 0;");
    src->Line("return " + consumed_expr + ";");
  } else {
    src->Line("ctx->rows_produced = produced;");
    src->Line("return produced;");
  }
}

/// Kernel over an input list — CSV by-position, binary and REF by-row-index.
/// Input i is row ctx->in_row_ids[i], or ctx->row_id_base + i when that
/// array is null (a whole-table scan over a contiguous row range), so one
/// kernel serves both scans and late fetches. `emit_setup` emits the
/// format's function-level locals; `emit_reads(src, idx)` emits, for the
/// current row `rid` at input index `idx`, the read of every file input into
/// its v<k> local, each followed by its predicate tests.
std::string GenerateSelective(
    const PipelineSpec& spec, const PipelineLayout& lay,
    std::string_view plugin, bool needs_charconv,
    const std::function<void(SourceBuilder*)>& emit_setup,
    const std::function<void(SourceBuilder*, const std::string&)>&
        emit_reads) {
  SourceBuilder src;
  EmitPrelude(&src, spec, plugin, needs_charconv);
  if (!lay.dense_preds.empty()) {
    EmitMaskFunctions(&src, spec, lay,
                      "(ctx->in_row_ids ? ctx->in_row_ids[base + t] : "
                      "ctx->row_id_base + base + t)");
  }
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  emit_setup(&src);
  src.Line("const int64_t* const ids = ctx->in_row_ids;");
  src.Line("const int64_t id_base = ctx->row_id_base;");
  src.Line("int64_t i = ctx->input_cursor;");
  src.Line("const int64_t i0 = i;");
  src.Line("const int64_t n_in = ctx->num_inputs;");
  EmitBodySetup(&src, spec, lay);
  EmitRowLoop(&src, spec, lay, "i", "n_in", "ctx->input_cursor",
              [&](SourceBuilder* s, const std::string& idx) {
                s->Line("const int64_t rid = ids ? ids[" + idx +
                        "] : id_base + " + idx + ";");
                emit_reads(s, idx);
              });
  src.Blank();
  src.Line("ctx->input_cursor = i;");
  EmitBodyTail(&src, spec, "i - i0");
  src.Close();
  return src.str();
}

// --- CSV ---------------------------------------------------------------------

/// Cold CSV scan: walks the file (a morsel window of it) row by row from
/// ctx->byte_cursor, emitting window-local row ids from ctx->row_cursor and,
/// when the spec tracks map columns, recording each row's start and tracked
/// field offsets into ctx->pmap_row_starts / ctx->pmap_positions
/// (window-relative; the host rebases them). A plain projection only: row
/// ids are window-local, so nothing here may filter or read dense columns.
StatusOr<std::string> GenerateCsvSequential(const PipelineSpec& spec,
                                            const PipelineLayout& lay) {
  if (spec.mode != PipelineOutputMode::kProject || !spec.predicates.empty() ||
      lay.file_inputs.size() != spec.inputs.size()) {
    return Status::InvalidArgument(
        "sequential CSV kernels are plain projections of file columns");
  }
  SourceBuilder src;
  EmitPrelude(&src, spec, "csv", CsvParsesFloats(spec, lay));
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  src.Line("const char* const data = ctx->file_data;");
  src.Line("const char* const end = data + ctx->file_size;");
  src.Line("const char* p = data + ctx->byte_cursor;");
  src.Line("int64_t row = ctx->row_cursor;");
  EmitProjOutputBindings(&src, spec);
  const int num_slots = static_cast<int>(spec.pmap_tracked.size());
  if (num_slots > 0) {
    src.Line("uint64_t* const pmap_pos = ctx->pmap_positions;");
    src.Line("uint64_t* const pmap_rs = ctx->pmap_row_starts;");
  }
  src.Blank();
  src.Open("while (produced < max_rows && p < end) {");
  if (num_slots > 0) {
    src.Line("if (pmap_rs) pmap_rs[produced] = (uint64_t)(p - data);");
  }

  // The per-column action plan: union of file inputs and tracked columns.
  struct Action {
    int column;
    int input = -1;  // index into spec.inputs
    int slot = -1;   // index into spec.pmap_tracked
  };
  std::vector<Action> actions;
  for (int k : lay.file_inputs) {
    actions.push_back({spec.inputs[static_cast<size_t>(k)].column, k, -1});
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
    EmitCsvSkipFields(&src, act.column - cursor_col, spec.delimiter);
    cursor_col = act.column;
    src.Line("// column " + std::to_string(act.column));
    if (act.slot >= 0) {
      src.Line("if (pmap_pos) pmap_pos[produced * " +
               std::to_string(num_slots) + " + " + std::to_string(act.slot) +
               "] = (uint64_t)(p - data);");
    }
    const bool last = (a + 1 == actions.size());
    if (act.input >= 0) {
      src.Line(DeclareFileValue(spec, act.input));
      EmitCsvParseField(&src, spec.inputs[static_cast<size_t>(act.input)].type,
                        FileValue(act.input), spec.delimiter);
      if (!last) {
        src.Line("++p;  // consume delimiter");
        cursor_col = act.column + 1;
      }
    } else if (!last) {
      // Tracked-only column mid-row: position recorded, skip its value.
      EmitCsvSkipFields(&src, 1, spec.delimiter);
      cursor_col = act.column + 1;
    }
  }
  // Advance to the start of the next row.
  src.Line("const char* nl = (const char*)memchr(p, '\\n', (size_t)(end - p));");
  src.Line("p = nl ? nl + 1 : end;");
  EmitProjectionStores(&src, spec, "row");
  src.Line("++row;");
  src.Close();  // while
  src.Blank();
  src.Line("ctx->byte_cursor = (uint64_t)(p - data);");
  src.Line("ctx->row_cursor = row;");
  src.Line("ctx->rows_produced = produced;");
  src.Line("return produced;");
  src.Close();  // function
  return src.str();
}

/// Warm CSV kernel: jumps to each input row's anchor position, then parses
/// and tests the file inputs left to right, skipping the remaining parse
/// work of rows a predicate rejects.
StatusOr<std::string> GenerateCsvByPosition(const PipelineSpec& spec,
                                            const PipelineLayout& lay) {
  const PipelineInput& first =
      spec.inputs[static_cast<size_t>(lay.file_inputs.front())];
  if (first.column < spec.anchor_column) {
    return Status::InvalidArgument(
        "by-position CSV kernel cannot read left of the anchor column");
  }
  auto setup = [](SourceBuilder* src) {
    src->Line("const char* const data = ctx->file_data;");
    src->Line("const uint64_t* const pos = ctx->in_positions;");
    src->Line("const int64_t pos_stride = ctx->in_position_stride;");
  };
  auto reads = [&](SourceBuilder* src, const std::string& idx) {
    src->Line("const char* p = data + pos[(" + idx + ") * pos_stride];");
    int cursor_col = spec.anchor_column;
    size_t remaining = lay.file_inputs.size();
    for (int k : lay.file_inputs) {
      const PipelineInput& in = spec.inputs[static_cast<size_t>(k)];
      EmitCsvSkipFields(src, in.column - cursor_col, spec.delimiter);
      cursor_col = in.column;
      src->Line("// column " + std::to_string(in.column));
      src->Line(DeclareFileValue(spec, k));
      EmitCsvParseField(src, in.type, FileValue(k), spec.delimiter);
      EmitFileTests(src, spec, lay.file_preds[static_cast<size_t>(k)],
                    FileValue(k));
      if (--remaining > 0) {
        src->Line("++p;  // consume delimiter");
        cursor_col = in.column + 1;
      }
    }
  };
  return GenerateSelective(spec, lay, "csv", CsvParsesFloats(spec, lay), setup,
                           reads);
}

// --- binary ------------------------------------------------------------------

Status CheckBinLayout(const PipelineSpec& spec, const PipelineLayout& lay) {
  if (spec.row_width <= 0 ||
      spec.column_offsets.size() != lay.file_inputs.size()) {
    return Status::InvalidArgument(
        "binary kernel: row_width/column_offsets not set");
  }
  return Status::OK();
}

/// Emits the typed load of every file input of row `row_expr`: the byte
/// offset `row * row_width + column_offset` is constant-folded into the code
/// (§4.1: "injecting the appropriate binary offsets in the code").
void EmitBinReads(SourceBuilder* src, const PipelineSpec& spec,
                  const PipelineLayout& lay, const std::string& row_expr) {
  const std::string rw = std::to_string(spec.row_width);
  for (int k : lay.file_inputs) {
    const size_t j = static_cast<size_t>(lay.file_rank[static_cast<size_t>(k)]);
    const std::string v = FileValue(k);
    src->Line("// column " +
              std::to_string(spec.inputs[static_cast<size_t>(k)].column));
    src->Line(DeclareFileValue(spec, k));
    src->Line("memcpy(&" + v + ", data + (uint64_t)(" + row_expr + ") * " +
              rw + "ull + " + std::to_string(spec.column_offsets[j]) +
              "ull, sizeof(" + v + "));");
    EmitFileTests(src, spec, lay.file_preds[static_cast<size_t>(k)], v);
  }
}

/// Sequential binary kernel over rows [ctx->row_cursor, ctx->total_rows).
StatusOr<std::string> GenerateBinSequential(const PipelineSpec& spec,
                                            const PipelineLayout& lay) {
  SourceBuilder src;
  EmitPrelude(&src, spec, "bin");
  if (!lay.dense_preds.empty()) EmitMaskFunctions(&src, spec, lay, "base + t");
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  src.Line("const char* const data = ctx->file_data;");
  src.Line("int64_t row = ctx->row_cursor;");
  src.Line("const int64_t i0 = row;");
  src.Line("const int64_t total = ctx->total_rows;");
  EmitBodySetup(&src, spec, lay);
  EmitRowLoop(&src, spec, lay, "row", "total", "ctx->row_cursor",
              [&](SourceBuilder* s, const std::string& idx) {
                s->Line("const int64_t rid = " + idx + ";");
                EmitBinReads(s, spec, lay, "rid");
              });
  src.Blank();
  src.Line("ctx->row_cursor = row;");
  EmitBodyTail(&src, spec, "row - i0");
  src.Close();
  return src.str();
}

StatusOr<std::string> GenerateBinByRowIndex(const PipelineSpec& spec,
                                            const PipelineLayout& lay) {
  auto setup = [](SourceBuilder* src) {
    src->Line("const char* const data = ctx->file_data;");
  };
  auto reads = [&](SourceBuilder* src, const std::string&) {
    EmitBinReads(src, spec, lay, "rid");
  };
  return GenerateSelective(spec, lay, "bin", false, setup, reads);
}

// --- REF ---------------------------------------------------------------------
// REF kernels emit calls into the REF I/O API instead of interpreting raw
// bytes, exactly as the paper's ROOT plug-in does (§6), touching only the
// branches the query needs.

/// `if (read_range(...)) fail;` for one branch read into `dst`.
void EmitRefRead(SourceBuilder* src, int branch, const std::string& first,
                 const std::string& count, const std::string& dst) {
  src->Open("if (ctx->ref.read_range(ctx->ref.reader, " +
            std::to_string(branch) + ", " + first + ", " + count + ", " + dst +
            ")) {");
  src->Line("ctx->error = 1;");
  src->Line("ctx->error_row = " + first + ";");
  src->Line("return -1;");
  src->Close();
}

/// Sequential REF kernel over rows [ctx->row_cursor, ctx->total_rows): one
/// bulk API call per file input per block into the host's decode buffers,
/// then filtering and projection / aggregation over the decoded values.
StatusOr<std::string> GenerateRefSequential(const PipelineSpec& spec,
                                            const PipelineLayout& lay) {
  const bool agg = spec.mode == PipelineOutputMode::kAggregate;
  const bool masked = !lay.dense_preds.empty();
  SourceBuilder src;
  EmitPrelude(&src, spec, "ref");
  if (masked) EmitMaskFunctions(&src, spec, lay, "base + t");
  src.Open("extern \"C\" int64_t raw_jit_scan_batch(RawJitContext* ctx) {");
  src.Line("int64_t row = ctx->row_cursor;");
  src.Line("const int64_t i0 = row;");
  src.Line("const int64_t end = ctx->total_rows;");
  EmitBodySetup(&src, spec, lay);
  if (agg) {
    src.Open("while (row < end) {");
    src.Line("int64_t take = end - row;");
    src.Line("if (take > ctx->max_rows) take = ctx->max_rows;");
  } else {
    // A block never outgrows the output space left, so the outputs fill
    // only at a block's end and the cursor moves by whole blocks.
    src.Open("while (row < end && produced < max_rows) {");
    src.Line("int64_t take = end - row;");
    src.Line("if (take > max_rows - produced) take = max_rows - produced;");
  }
  for (int k : lay.file_inputs) {
    EmitRefRead(&src, spec.inputs[static_cast<size_t>(k)].column, "row", "take",
                "ctx->decode_columns[" +
                    std::to_string(lay.file_rank[static_cast<size_t>(k)]) +
                    "]");
  }
  for (int k : lay.file_inputs) {
    std::string t(CTypeName(spec.inputs[static_cast<size_t>(k)].type));
    src.Line("const " + t + "* const b" + std::to_string(k) + " = (const " +
             t + "*)ctx->decode_columns[" +
             std::to_string(lay.file_rank[static_cast<size_t>(k)]) + "];");
  }
  if (masked) src.Line("mask_fn(ctx, row, take);");
  src.Open("for (int64_t t = 0; t < take; ++t) {");
  if (masked) src.Line("if (!ctx->sel_mask[t]) continue;");
  src.Line("const int64_t rid = row + t;");
  for (int k : lay.file_inputs) {
    const std::string v = FileValue(k);
    src.Line("const " +
             std::string(CTypeName(spec.inputs[static_cast<size_t>(k)].type)) +
             " " + v + " = b" + std::to_string(k) + "[t];");
    EmitFileTests(&src, spec, lay.file_preds[static_cast<size_t>(k)], v);
  }
  EmitRowOutputs(&src, spec, "rid");
  src.Close();  // for
  src.Line("row += take;");
  src.Close();  // while
  src.Blank();
  src.Line("ctx->row_cursor = row;");
  EmitBodyTail(&src, spec, "row - i0");
  src.Close();
  return src.str();
}

/// REF fetch: one id-based single-value API call per file input per row.
StatusOr<std::string> GenerateRefByRowIndex(const PipelineSpec& spec,
                                            const PipelineLayout& lay) {
  auto reads = [&](SourceBuilder* src, const std::string&) {
    for (int k : lay.file_inputs) {
      const std::string v = FileValue(k);
      src->Line(DeclareFileValue(spec, k));
      EmitRefRead(src, spec.inputs[static_cast<size_t>(k)].column, "rid", "1",
                  "&" + v);
      EmitFileTests(src, spec, lay.file_preds[static_cast<size_t>(k)], v);
    }
  };
  return GenerateSelective(
      spec, lay, "ref", false, [](SourceBuilder*) {}, reads);
}

}  // namespace

StatusOr<std::string> GenerateCsvPipelineSource(const PipelineSpec& spec) {
  PipelineLayout lay;
  RAW_RETURN_NOT_OK(ValidateAndLayOut(spec, &lay));
  // The parse/skip interleave walks each row left to right.
  for (size_t j = 1; j < lay.file_inputs.size(); ++j) {
    if (spec.inputs[static_cast<size_t>(lay.file_inputs[j])].column <=
        spec.inputs[static_cast<size_t>(lay.file_inputs[j - 1])].column) {
      return Status::InvalidArgument(
          "CSV kernel file inputs must be ascending by column");
    }
  }
  switch (spec.scan_mode) {
    case ScanMode::kSequential:
      return GenerateCsvSequential(spec, lay);
    case ScanMode::kByPosition:
      return GenerateCsvByPosition(spec, lay);
    case ScanMode::kByRowIndex:
      break;
  }
  return Status::InvalidArgument(
      "CSV has no deterministic row offsets; use kByPosition");
}

StatusOr<std::string> GenerateBinPipelineSource(const PipelineSpec& spec) {
  PipelineLayout lay;
  RAW_RETURN_NOT_OK(ValidateAndLayOut(spec, &lay));
  RAW_RETURN_NOT_OK(CheckBinLayout(spec, lay));
  switch (spec.scan_mode) {
    case ScanMode::kSequential:
      return GenerateBinSequential(spec, lay);
    case ScanMode::kByRowIndex:
      return GenerateBinByRowIndex(spec, lay);
    case ScanMode::kByPosition:
      break;
  }
  return Status::InvalidArgument(
      "binary offsets are computed, not mapped; use kByRowIndex");
}

StatusOr<std::string> GenerateRefPipelineSource(const PipelineSpec& spec) {
  PipelineLayout lay;
  RAW_RETURN_NOT_OK(ValidateAndLayOut(spec, &lay));
  switch (spec.scan_mode) {
    case ScanMode::kSequential:
      return GenerateRefSequential(spec, lay);
    case ScanMode::kByRowIndex:
      return GenerateRefByRowIndex(spec, lay);
    case ScanMode::kByPosition:
      break;
  }
  return Status::InvalidArgument(
      "REF access is id-based; use kByRowIndex or kSequential");
}

StatusOr<std::string> GeneratePipelineSource(const PipelineSpec& spec) {
  // Format dispatch goes through the registry: a driver either delegates to
  // one of the plug-ins above (the built-in formats) or emits its own
  // kernels; formats without a plug-in report NotImplemented and the planner
  // keeps them on the interpreted path.
  RAW_ASSIGN_OR_RETURN(const FormatDriver* driver,
                       FormatRegistry::Global().Require(spec.format));
  return driver->EmitJitPipelineSource(spec);
}

}  // namespace raw
