#include "scan/jit_scan.h"

#include <cstring>

namespace raw {

JitScanOperator::JitScanOperator(JitTemplateCache* cache, JitScanArgs args)
    : cache_(cache), args_(std::move(args)) {}

int32_t JitScanOperator::RefReadRangeTrampoline(void* reader, int32_t branch,
                                                int64_t first, int64_t count,
                                                void* out) {
  Status st = static_cast<RefReader*>(reader)->ReadRange(branch, first, count,
                                                         out);
  return st.ok() ? 0 : 1;
}

Status JitScanOperator::Open() {
  if (static_cast<int>(args_.spec.outputs.size()) !=
      args_.output_schema.num_fields()) {
    return Status::InvalidArgument(
        "JIT scan: output schema does not match spec outputs");
  }
  RAW_ASSIGN_OR_RETURN(kernel_, cache_->GetOrCompile(args_.spec));
  if (args_.health != nullptr) {
    args_.health->AddJitWait(kernel_.compile_seconds);
  }

  std::memset(&ctx_, 0, sizeof(ctx_));
  if (args_.file != nullptr) {
    ctx_.file_data = args_.file->data();
    ctx_.file_size = args_.file->size();
    if (args_.window_end > 0) {
      if (args_.window_end > args_.file->size() ||
          args_.window_begin > args_.window_end) {
        return Status::InvalidArgument("JIT scan window out of bounds");
      }
      ctx_.file_data += args_.window_begin;
      ctx_.file_size = args_.window_end - args_.window_begin;
    }
    if (args_.spec.format == FileFormat::kCsv && ctx_.file_size > 0 &&
        ctx_.file_data[ctx_.file_size - 1] != '\n') {
      // Generated CSV kernels elide bounds checks inside fields; they rely
      // on a terminating newline. Files missing it take the interpreted path.
      return Status::InvalidArgument(
          "JIT CSV kernels require a trailing newline; use the in-situ scan");
    }
  }
  ctx_.total_rows = args_.total_rows;
  ctx_.max_rows = args_.batch_rows;
  if (args_.first_row < 0) {
    return Status::InvalidArgument("JIT scan first_row out of range");
  }
  ctx_.row_cursor = args_.first_row;
  if (args_.row_set.has_value()) {
    const RowSet& rows = *args_.row_set;
    if (args_.spec.mode == ScanMode::kByPosition &&
        rows.positions.size() != rows.ids.size()) {
      return Status::InvalidArgument(
          "JIT by-position scan: positions not filled");
    }
    ctx_.in_row_ids = rows.ids.data();
    ctx_.in_positions = rows.positions.empty() ? nullptr : rows.positions.data();
    ctx_.num_inputs = rows.size();
  } else if (args_.spec.mode != ScanMode::kSequential) {
    return Status::InvalidArgument("selective JIT scan requires a row set");
  }
  if (args_.ref_reader != nullptr) {
    ctx_.ref.reader = args_.ref_reader;
    ctx_.ref.read_range = &RefReadRangeTrampoline;
    if (ctx_.total_rows < 0) ctx_.total_rows = args_.ref_reader->num_events();
  }
  if (args_.spec.format == FileFormat::kBinary && ctx_.total_rows < 0) {
    ctx_.total_rows = args_.spec.row_width > 0
                          ? static_cast<int64_t>(ctx_.file_size) /
                                args_.spec.row_width
                          : 0;
  }
  if (args_.build_pmap != nullptr) {
    if (args_.build_pmap->tracked_columns() != args_.spec.pmap_tracked) {
      return Status::InvalidArgument(
          "positional map tracked columns do not match the kernel spec");
    }
    pmap_rows_scratch_.resize(static_cast<size_t>(args_.batch_rows));
    pmap_pos_scratch_.resize(static_cast<size_t>(args_.batch_rows) *
                             args_.spec.pmap_tracked.size());
    ctx_.pmap_row_starts = pmap_rows_scratch_.data();
    ctx_.pmap_positions = pmap_pos_scratch_.data();
  }
  row_id_scratch_.resize(static_cast<size_t>(args_.batch_rows));
  ctx_.out_row_ids = row_id_scratch_.data();
  out_ptr_scratch_.resize(args_.spec.outputs.size());
  eof_ = false;
  return Status::OK();
}

StatusOr<ColumnBatch> JitScanOperator::Next() {
  ColumnBatch out(args_.output_schema);
  if (eof_) return ColumnBatch::EndOfStream(args_.output_schema);

  if (args_.profile) args_.profile->build_columns.Start();
  // Allocate output buffers for this batch; the kernel fills them in place
  // (this allocation *is* the irreducible "build columns" cost of §5).
  std::vector<ColumnPtr> columns;
  columns.reserve(args_.spec.outputs.size());
  for (size_t j = 0; j < args_.spec.outputs.size(); ++j) {
    auto col = std::make_shared<Column>(
        Column::Zeroed(args_.spec.outputs[j].type, args_.batch_rows));
    out_ptr_scratch_[j] = col->raw_data();
    columns.push_back(std::move(col));
  }
  ctx_.out_columns = out_ptr_scratch_.data();
  if (args_.profile) args_.profile->build_columns.Stop();

  if (args_.profile) args_.profile->kernel.Start();
  int64_t produced = kernel_.entry(&ctx_);
  if (args_.profile) args_.profile->kernel.Stop();

  if (produced < 0 || ctx_.error != 0) {
    return Status::Internal("JIT kernel failed at row " +
                            std::to_string(ctx_.error_row));
  }
  if (produced == 0) {
    eof_ = true;
    return ColumnBatch::EndOfStream(args_.output_schema);
  }

  if (args_.profile) args_.profile->build_columns.Start();
  for (ColumnPtr& col : columns) {
    col->Resize(produced);
    out.AddColumn(std::move(col));
  }
  out.SetNumRows(produced);
  std::vector<int64_t> ids(row_id_scratch_.begin(),
                           row_id_scratch_.begin() + produced);
  if (args_.row_id_offset != 0) {
    for (int64_t& id : ids) id += args_.row_id_offset;
  }
  out.SetRowIds(std::move(ids));
  if (args_.build_pmap != nullptr) {
    PositionalMap* pmap = args_.build_pmap;
    const size_t slots = args_.spec.pmap_tracked.size();
    const uint64_t rebase = args_.window_begin;
    for (int64_t r = 0; r < produced; ++r) {
      uint64_t* positions =
          pmap_pos_scratch_.data() + static_cast<size_t>(r) * slots;
      if (rebase != 0) {
        for (size_t s = 0; s < slots; ++s) positions[s] += rebase;
      }
      pmap->AppendRow(pmap_rows_scratch_[static_cast<size_t>(r)] + rebase,
                      positions);
    }
  }
  if (args_.profile) {
    args_.profile->build_columns.Stop();
    args_.profile->rows += produced;
  }
  return out;
}

}  // namespace raw
