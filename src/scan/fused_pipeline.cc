#include "scan/fused_pipeline.h"

#include <cstring>

#include "common/kernels.h"

namespace raw {

FusedPipelineOperator::FusedPipelineOperator(JitTemplateCache* cache,
                                             FusedPipelineArgs args)
    : cache_(cache), args_(std::move(args)) {}

int32_t FusedPipelineOperator::RefReadRangeTrampoline(void* reader,
                                                      int32_t branch,
                                                      int64_t first,
                                                      int64_t count,
                                                      void* out) {
  Status st =
      static_cast<RefReader*>(reader)->ReadRange(branch, first, count, out);
  return st.ok() ? 0 : 1;
}

Status FusedPipelineOperator::Open() {
  const PipelineSpec& spec = args_.spec;
  const bool agg_mode = spec.mode == PipelineOutputMode::kAggregate;
  if (agg_mode) {
    if (args_.output_schema.num_fields() !=
        static_cast<int>(spec.aggs.size()) * kFusedAggStateCols) {
      return Status::InvalidArgument(
          "fused pipeline: output schema does not match the agg partial "
          "layout");
    }
  } else if (args_.output_schema.num_fields() !=
             static_cast<int>(spec.projections.size())) {
    return Status::InvalidArgument(
        "fused pipeline: output schema does not match the projection list");
  }
  if (!args_.dense_columns.empty() &&
      args_.dense_columns.size() != spec.inputs.size()) {
    return Status::InvalidArgument(
        "fused pipeline: dense_columns must parallel spec.inputs");
  }
  RAW_ASSIGN_OR_RETURN(kernel_, cache_->GetOrCompile(spec));
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
        return Status::InvalidArgument("fused pipeline window out of bounds");
      }
      ctx_.file_data += args_.window_begin;
      ctx_.file_size = args_.window_end - args_.window_begin;
    }
    if (spec.format == FileFormat::kCsv && ctx_.file_size > 0 &&
        ctx_.file_data[ctx_.file_size - 1] != '\n') {
      // Generated CSV kernels parse fields without bounds checks, relying on
      // a terminating newline. Files missing it take the interpreted path.
      return Status::InvalidArgument(
          "JIT CSV kernels require a trailing newline; use the in-situ scan");
    }
  }
  ctx_.max_rows = args_.batch_rows;
  if (args_.ref_reader != nullptr) {
    ctx_.ref.reader = args_.ref_reader;
    ctx_.ref.read_range = &RefReadRangeTrampoline;
  }
  RAW_RETURN_NOT_OK(BindInput());

  // Dense (cached full-column) inputs, indexed by global row id in-kernel.
  dense_ptr_scratch_.assign(spec.inputs.size(), nullptr);
  bool any_dense_pred = false;
  for (const PipelinePredicate& p : spec.predicates) {
    if (spec.inputs[static_cast<size_t>(p.input)].dense) any_dense_pred = true;
  }
  std::vector<DataType> file_types;
  for (size_t k = 0; k < spec.inputs.size(); ++k) {
    if (!spec.inputs[k].dense) {
      file_types.push_back(spec.inputs[k].type);
      continue;
    }
    const ColumnPtr col =
        k < args_.dense_columns.size() ? args_.dense_columns[k] : nullptr;
    if (col == nullptr || col->type() != spec.inputs[k].type) {
      return Status::InvalidArgument(
          "fused pipeline: dense input has no matching cached column");
    }
    dense_ptr_scratch_[k] = col->raw_data();
  }
  ctx_.in_dense = dense_ptr_scratch_.data();
  if (any_dense_pred) {
    sel_mask_scratch_.assign(static_cast<size_t>(args_.batch_rows), 0);
    ctx_.sel_mask = sel_mask_scratch_.data();
  }
  ctx_.kernel_tier = static_cast<int32_t>(ActiveKernelTier());

  // Bind this request's literals. The kernel is shared by every spec with
  // the same CacheKey(), which fixes each literal's type but not its value.
  pred_literals_.assign(spec.predicates.size(), RawJitLiteral{});
  for (size_t j = 0; j < spec.predicates.size(); ++j) {
    const Datum& lit = spec.predicates[j].literal;
    RawJitLiteral& slot = pred_literals_[j];
    switch (lit.type()) {
      case DataType::kInt32:
        slot.i32 = lit.int32_value();
        break;
      case DataType::kInt64:
        slot.i64 = lit.int64_value();
        break;
      case DataType::kFloat32:
        slot.f32 = lit.float32_value();
        break;
      case DataType::kFloat64:
        slot.f64 = lit.float64_value();
        break;
      default:
        return Status::InvalidArgument(
            "fused pipelines only compare numeric literals");
    }
  }
  ctx_.pred_literals = pred_literals_.data();

  if (spec.format == FileFormat::kRef &&
      spec.scan_mode == ScanMode::kSequential) {
    // Sequential REF kernels bulk-decode each branch range into host scratch.
    ref_decode_scratch_.clear();
    decode_ptr_scratch_.clear();
    for (DataType type : file_types) {
      auto col =
          std::make_shared<Column>(Column::Zeroed(type, args_.batch_rows));
      decode_ptr_scratch_.push_back(col->raw_data());
      ref_decode_scratch_.push_back(std::move(col));
    }
    ctx_.decode_columns = decode_ptr_scratch_.data();
  }
  if (agg_mode) {
    agg_count_.assign(spec.aggs.size(), 0);
    agg_dacc_.assign(spec.aggs.size(), 0.0);
    agg_iacc_.assign(spec.aggs.size(), 0);
    agg_init_.assign(spec.aggs.size(), 0);
    ctx_.agg_count = agg_count_.data();
    ctx_.agg_dacc = agg_dacc_.data();
    ctx_.agg_iacc = agg_iacc_.data();
    ctx_.agg_init = agg_init_.data();
  } else {
    row_id_scratch_.resize(static_cast<size_t>(args_.batch_rows));
    ctx_.out_row_ids = row_id_scratch_.data();
    out_ptr_scratch_.resize(spec.projections.size());
  }
  eof_ = false;
  return Status::OK();
}

Status FusedPipelineOperator::BindInput() {
  const PipelineSpec& spec = args_.spec;
  if (args_.build_pmap != nullptr) {
    if (spec.format != FileFormat::kCsv ||
        spec.scan_mode != ScanMode::kSequential ||
        args_.build_pmap->tracked_columns() != spec.pmap_tracked) {
      return Status::InvalidArgument(
          "positional map tracked columns do not match the kernel spec");
    }
    pmap_rows_scratch_.resize(static_cast<size_t>(args_.batch_rows));
    pmap_pos_scratch_.resize(static_cast<size_t>(args_.batch_rows) *
                             spec.pmap_tracked.size());
    ctx_.pmap_row_starts = pmap_rows_scratch_.data();
    ctx_.pmap_positions = pmap_pos_scratch_.data();
  }
  if (spec.format == FileFormat::kCsv &&
      spec.scan_mode == ScanMode::kSequential) {
    // Walks the window from its first byte; rows are found while parsing.
    ctx_.total_rows = -1;
    return Status::OK();
  }

  const bool by_position = spec.scan_mode == ScanMode::kByPosition;
  int anchor_slot = -1;
  if (by_position && args_.pmap != nullptr) {
    anchor_slot = args_.pmap->SlotFor(spec.anchor_column);
    if (anchor_slot < 0) {
      return Status::InvalidArgument(
          "by-position kernel: the positional map does not track the anchor "
          "column");
    }
  }
  if (args_.row_set.has_value()) {
    if (spec.scan_mode == ScanMode::kSequential) {
      return Status::InvalidArgument(
          "a row set needs a by-position or by-row-index kernel");
    }
    RowSet& rows = *args_.row_set;
    if (by_position && rows.positions.empty() && anchor_slot >= 0) {
      RAW_RETURN_NOT_OK(FillPositions(*args_.pmap, anchor_slot, &rows));
    }
    if (by_position && rows.positions.size() != rows.ids.size()) {
      return Status::InvalidArgument(
          "by-position kernel: positions not filled");
    }
    ctx_.in_row_ids = rows.ids.data();
    ctx_.in_positions =
        rows.positions.empty() ? nullptr : rows.positions.data();
    ctx_.in_position_stride = 1;
    ctx_.num_inputs = rows.size();
    return Status::OK();
  }
  if (spec.scan_mode == ScanMode::kByRowIndex) {
    return Status::InvalidArgument("by-row-index kernel requires a row set");
  }

  const int64_t first = args_.rows.begin;
  int64_t end = args_.rows.end;
  if (!args_.rows.bounded()) {
    if (by_position) {
      end = args_.pmap != nullptr ? args_.pmap->num_rows() : 0;
    } else if (args_.ref_reader != nullptr) {
      end = args_.ref_reader->num_events();
    } else if (spec.format == FileFormat::kBinary && spec.row_width > 0) {
      end = static_cast<int64_t>(ctx_.file_size) / spec.row_width;
    } else {
      end = 0;
    }
  }
  if (args_.rows.unit != ScanRange::Unit::kRows || first < 0 || first > end) {
    return Status::InvalidArgument("pipeline row range out of bounds");
  }
  if (!by_position) {
    ctx_.row_cursor = first;
    ctx_.total_rows = end;
    return Status::OK();
  }
  // Whole-table positional scan: ids are first + i and positions come
  // straight from the map's row-major array, so nothing per row is built.
  if (anchor_slot < 0) {
    return Status::InvalidArgument(
        "by-position kernel needs a row set or a positional map");
  }
  if (end > args_.pmap->num_rows()) {
    return Status::InvalidArgument("row range outside the positional map");
  }
  const int64_t stride = args_.pmap->num_tracked();
  ctx_.row_id_base = first;
  ctx_.num_inputs = end - first;
  ctx_.in_position_stride = stride;
  if (ctx_.num_inputs > 0) {
    ctx_.in_positions =
        args_.pmap->positions_data() + first * stride + anchor_slot;
  }
  return Status::OK();
}

StatusOr<ColumnBatch> FusedPipelineOperator::Next() {
  if (eof_) return ColumnBatch::EndOfStream(args_.output_schema);
  return args_.spec.mode == PipelineOutputMode::kAggregate ? NextAggregate()
                                                           : NextProject();
}

StatusOr<ColumnBatch> FusedPipelineOperator::NextProject() {
  if (args_.profile) args_.profile->build_columns.Start();
  std::vector<ColumnPtr> columns;
  columns.reserve(args_.spec.projections.size());
  for (size_t m = 0; m < args_.spec.projections.size(); ++m) {
    int k = args_.spec.projections[m];
    auto col = std::make_shared<Column>(Column::Zeroed(
        args_.spec.inputs[static_cast<size_t>(k)].type, args_.batch_rows));
    out_ptr_scratch_[m] = col->raw_data();
    columns.push_back(std::move(col));
  }
  ctx_.out_columns = out_ptr_scratch_.data();
  if (args_.profile) args_.profile->build_columns.Stop();

  if (args_.profile) args_.profile->kernel.Start();
  int64_t produced = kernel_.entry(&ctx_);
  if (args_.profile) args_.profile->kernel.Stop();

  if (produced < 0 || ctx_.error != 0) {
    return Status::Internal("fused pipeline kernel failed at row " +
                            std::to_string(ctx_.error_row));
  }
  if (produced == 0) {
    eof_ = true;
    return ColumnBatch::EndOfStream(args_.output_schema);
  }

  if (args_.profile) args_.profile->build_columns.Start();
  ColumnBatch out(args_.output_schema);
  for (ColumnPtr& col : columns) {
    col->Resize(produced);
    out.AddColumn(std::move(col));
  }
  out.SetNumRows(produced);
  // Kernels emit global row ids (dense columns are indexed by global id
  // in-kernel); only sequential CSV morsels emit window-local ids, which the
  // parallel scan driver rebases.
  out.SetRowIds(std::vector<int64_t>(row_id_scratch_.begin(),
                                     row_id_scratch_.begin() + produced));
  if (args_.build_pmap != nullptr) {
    const size_t slots = args_.spec.pmap_tracked.size();
    const uint64_t rebase = args_.window_begin;
    for (int64_t r = 0; r < produced; ++r) {
      uint64_t* positions =
          pmap_pos_scratch_.data() + static_cast<size_t>(r) * slots;
      if (rebase != 0) {
        for (size_t s = 0; s < slots; ++s) positions[s] += rebase;
      }
      args_.build_pmap->AppendRow(
          pmap_rows_scratch_[static_cast<size_t>(r)] + rebase, positions);
    }
  }
  if (args_.profile) {
    args_.profile->build_columns.Stop();
    args_.profile->rows += produced;
  }
  return out;
}

StatusOr<ColumnBatch> FusedPipelineOperator::NextAggregate() {
  // One invocation folds the whole morsel into the context agg arrays.
  if (args_.profile) args_.profile->kernel.Start();
  int64_t consumed = kernel_.entry(&ctx_);
  if (args_.profile) args_.profile->kernel.Stop();
  if (consumed < 0 || ctx_.error != 0) {
    return Status::Internal("fused pipeline kernel failed at row " +
                            std::to_string(ctx_.error_row));
  }
  eof_ = true;

  ColumnBatch out(args_.output_schema);
  for (size_t s = 0; s < args_.spec.aggs.size(); ++s) {
    auto count_col = std::make_shared<Column>(DataType::kInt64);
    count_col->Append<int64_t>(agg_count_[s]);
    out.AddColumn(std::move(count_col));
    auto dacc_col = std::make_shared<Column>(DataType::kFloat64);
    dacc_col->Append<double>(agg_dacc_[s]);
    out.AddColumn(std::move(dacc_col));
    auto iacc_col = std::make_shared<Column>(DataType::kInt64);
    iacc_col->Append<int64_t>(agg_iacc_[s]);
    out.AddColumn(std::move(iacc_col));
    auto init_col = std::make_shared<Column>(DataType::kInt64);
    init_col->Append<int64_t>(agg_init_[s] != 0 ? 1 : 0);
    out.AddColumn(std::move(init_col));
  }
  out.SetNumRows(1);
  if (args_.profile) args_.profile->rows += consumed;
  return out;
}

FusedAggFinalizeOperator::FusedAggFinalizeOperator(
    OperatorPtr child, std::vector<AggSpec> specs,
    std::vector<DataType> input_types)
    : child_(std::move(child)),
      specs_(std::move(specs)),
      input_types_(std::move(input_types)) {}

Status FusedAggFinalizeOperator::Open() {
  RAW_RETURN_NOT_OK(child_->Open());
  if (input_types_.size() != specs_.size()) {
    return Status::InvalidArgument(
        "fused agg finalize: input_types must parallel specs");
  }
  if (child_->output_schema().num_fields() !=
      static_cast<int>(specs_.size()) * kFusedAggStateCols) {
    return Status::InvalidArgument(
        "fused agg finalize: child schema does not match the partial layout");
  }
  Schema schema;
  for (size_t s = 0; s < specs_.size(); ++s) {
    RAW_ASSIGN_OR_RETURN(DataType out_type,
                         AggResultType(specs_[s].kind, input_types_[s]));
    schema.AddField(specs_[s].output_name.empty()
                        ? std::string(AggKindToString(specs_[s].kind))
                        : specs_[s].output_name,
                    out_type);
  }
  output_schema_ = std::move(schema);
  done_ = false;
  return Status::OK();
}

StatusOr<ColumnBatch> FusedAggFinalizeOperator::Next() {
  if (done_) return ColumnBatch::EndOfStream(output_schema_);
  done_ = true;

  // Fresh accumulators merged left-to-right in morsel order: identical to
  // the serial fold AggregateOperator performs, so the final row is
  // bit-identical at any thread count (for the mergeable aggregate kinds the
  // planner admits to parallel fusion).
  std::vector<AggAccumulator> accs;
  for (size_t s = 0; s < specs_.size(); ++s) {
    accs.emplace_back(specs_[s].kind, input_types_[s]);
  }
  while (true) {
    RAW_ASSIGN_OR_RETURN(ColumnBatch batch, child_->Next());
    if (batch.end_of_stream()) break;
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t s = 0; s < specs_.size(); ++s) {
        const int base = static_cast<int>(s) * kFusedAggStateCols;
        accs[s].Merge(AggAccumulator::FromPartial(
            specs_[s].kind, input_types_[s],
            batch.column(base)->Value<int64_t>(r),
            batch.column(base + 1)->Value<double>(r),
            batch.column(base + 2)->Value<int64_t>(r),
            batch.column(base + 3)->Value<int64_t>(r) != 0));
      }
    }
  }

  ColumnBatch out(output_schema_);
  for (size_t s = 0; s < specs_.size(); ++s) {
    auto col = std::make_shared<Column>(
        output_schema_.field(static_cast<int>(s)).type);
    col->AppendDatum(accs[s].Finalize());
    out.AddColumn(std::move(col));
  }
  out.SetNumRows(1);
  return out;
}

}  // namespace raw
