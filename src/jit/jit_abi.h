#ifndef RAW_JIT_JIT_ABI_H_
#define RAW_JIT_JIT_ABI_H_

// C ABI shared between the RAW host engine and JIT-generated scan kernels.
//
// This header is #included both by the engine and by every generated
// translation unit (the compiler driver passes -I pointing here), so it must
// stay C-compatible: stdint types and PODs only, no C++ standard library.

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

// Callback table for file formats accessed through a library API rather than
// raw bytes (the REF event format, standing in for ROOT I/O; see §6 of the
// paper: "the JIT access paths emit code that calls the ROOT I/O API").
typedef struct RawJitRefApi {
  void* reader;  // opaque RefReader*
  // Reads `count` packed values of `branch` starting at flat index `first`
  // into `out`. Returns 0 on success, nonzero on failure.
  int32_t (*read_range)(void* reader, int32_t branch, int64_t first,
                        int64_t count, void* out);
} RawJitRefApi;

// One predicate literal of a fused pipeline, stored in the member matching
// the compared column's type so int32/float32 values keep their exact bits.
typedef union RawJitLiteral {
  int32_t i32;
  int64_t i64;
  float f32;
  double f64;
} RawJitLiteral;

// Execution context handed to a generated scan kernel for each batch.
// The kernel fills output buffers and advances the cursor fields.
typedef struct RawJitContext {
  // --- raw bytes (CSV / binary formats; memory-mapped by the host) ---------
  const char* file_data;
  uint64_t file_size;

  // --- sequential cursor state (kSequential kernels) ------------------------
  uint64_t byte_cursor;  // next unread byte (CSV)
  int64_t row_cursor;    // next unread row (binary / REF sequential)
  int64_t total_rows;    // total rows when known, else -1

  // --- batch control ---------------------------------------------------------
  int64_t max_rows;       // capacity of each output buffer, in rows
  int64_t rows_produced;  // set by the kernel

  // --- selective inputs (column shreds / positional access) -----------------
  // Row ids to visit and, for CSV, the byte position of the anchor column of
  // each (from the positional map); the kernel consumes inputs
  // [input_cursor, num_inputs). A null in_row_ids means the contiguous ids
  // row_id_base + i. Input i's position is in_positions[i *
  // in_position_stride], so a whole-table scan can point straight into the
  // map's row-major array (stride = its tracked-slot count) while late
  // fetches pass a dense array (stride 1).
  const int64_t* in_row_ids;
  const uint64_t* in_positions;
  int64_t in_position_stride;
  int64_t row_id_base;
  int64_t num_inputs;
  int64_t input_cursor;

  // --- outputs ---------------------------------------------------------------
  // One pointer per requested field, each an array of max_rows elements of
  // the field's C type.
  void** out_columns;
  // Original row id per produced row (capacity max_rows); always filled.
  int64_t* out_row_ids;

  // --- positional map building (CSV kSequential only) -----------------------
  uint64_t* pmap_row_starts;  // capacity max_rows
  uint64_t* pmap_positions;   // row-major [row][tracked slot]

  // --- REF callback API ------------------------------------------------------
  RawJitRefApi ref;
  // Sequential REF kernels bulk-decode each file input's branch range into
  // these host-owned buffers (one per file input, capacity max_rows).
  void** decode_columns;

  // --- error reporting -------------------------------------------------------
  int32_t error;      // nonzero => kernel aborted
  int64_t error_row;  // row where the error occurred

  // --- pipelines -------------------------------------------------------------
  // Dense already-cached input columns, parallel to the PipelineSpec input
  // list: in_dense[k] points at the full column's packed values (indexed by
  // global row id) for dense inputs and is null for inputs the kernel reads
  // from the file.
  const void* const* in_dense;
  // Aggregation state, one slot per PipelineAgg (fused aggregate kernels
  // consume their whole input in one call and leave partials here).
  int64_t* agg_count;
  double* agg_dacc;
  int64_t* agg_iacc;
  uint8_t* agg_init;
  // Scratch row mask (capacity max_rows) for the dense-predicate prepass.
  uint8_t* sel_mask;
  // Active KernelTier as an int (0=scalar..3=avx2), already clamped to what
  // the CPU supports; >=3 selects the AVX2 mask loop.
  int32_t kernel_tier;
  // Predicate literals, one slot per PipelineSpec predicate in spec order,
  // each holding the canonicalized literal in the member of the compared
  // column's type. Fused kernels read them at run time, so one compiled
  // kernel serves every literal of its query shape.
  const RawJitLiteral* pred_literals;
} RawJitContext;

// Every generated library exports this symbol. Returns the number of rows
// produced (0 = end of stream), or -1 on error (ctx->error set).
typedef int64_t (*RawJitScanFn)(RawJitContext* ctx);

#define RAW_JIT_ENTRY_SYMBOL "raw_jit_scan_batch"

#ifdef __cplusplus
}  // extern "C"
#endif

#endif  // RAW_JIT_JIT_ABI_H_
