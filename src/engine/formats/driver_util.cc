#include "engine/formats/driver_util.h"

#include "engine/executor.h"
#include "engine/planner.h"
#include "jit/template_cache.h"

namespace raw {

bool JitKernelReady(FormatScanContext& tc, const PipelineSpec& spec) {
  if (tc.opts->jit_fusion != JitFusion::kAuto) return true;
  const JitKernelState state = tc.jit->Request(spec);
  if (state == JitKernelState::kReady) return true;
  tc.jit_deferred = true;
  (*tc.desc) << "[jit: " << JitKernelStateReason(state) << "] ";
  return false;
}

std::vector<ScanRange> PlanMorsels(const FormatDriver& driver,
                                   const FormatScanContext& tc,
                                   ScanRange whole) {
  std::vector<ScanRange> morsels;
  if (tc.num_threads > 1) morsels = driver.SplitMorsels(tc, tc.num_threads * 4);
  if (morsels.size() <= 1) morsels = {whole};
  return morsels;
}

OperatorPtr MorselScan(FormatScanContext& tc, const Schema& schema,
                       std::vector<OperatorPtr> children) {
  if (children.size() == 1) return std::move(children.front());
  ParallelTableScanOperator::Options popts;
  popts.deadline = tc.opts->deadline;
  popts.num_threads = tc.num_threads;
  (*tc.desc) << "[parallel x" << tc.num_threads
             << " morsels=" << children.size() << "] ";
  return std::make_unique<ParallelTableScanOperator>(
      schema, std::move(children), std::move(popts));
}

SelectColumnsOperator::SelectColumnsOperator(OperatorPtr child,
                                             std::vector<int> indices,
                                             std::vector<std::string> names)
    : child_(std::move(child)),
      indices_(std::move(indices)),
      names_(std::move(names)) {}

Status SelectColumnsOperator::Open() {
  RAW_RETURN_NOT_OK(child_->Open());
  Schema schema;
  const Schema& in = child_->output_schema();
  for (size_t i = 0; i < indices_.size(); ++i) {
    schema.AddField(names_[i], in.field(indices_[i]).type);
  }
  RAW_RETURN_NOT_OK(schema.Validate());
  schema_ = std::move(schema);
  return Status::OK();
}

StatusOr<ColumnBatch> SelectColumnsOperator::Next() {
  RAW_ASSIGN_OR_RETURN(ColumnBatch batch, child_->Next());
  if (batch.end_of_stream()) return ColumnBatch::EndOfStream(schema_);
  ColumnBatch out(schema_);
  if (batch.empty()) return out;  // zero-row data batch
  for (int idx : indices_) out.AddColumn(batch.column(idx));
  out.SetNumRows(batch.num_rows());
  if (batch.has_row_ids()) out.SetRowIds(batch.row_ids());
  return out;
}

BuildPublishOperator::BuildPublishOperator(OperatorPtr child,
                                           const FormatScanContext& tc,
                                           AdaptiveSlot slot)
    : child_(std::move(child)),
      entry_(tc.entry),
      version_(tc.version),
      slot_(slot) {
  if (slot == AdaptiveSlot::kPositionalMap) {
    state_ = tc.building_pmap;
  } else {
    state_ = tc.building_format_state;
  }
}

StatusOr<ColumnBatch> BuildPublishOperator::Next() {
  RAW_ASSIGN_OR_RETURN(ColumnBatch batch, child_->Next());
  if (batch.end_of_stream()) drained_ = true;
  return batch;
}

Status BuildPublishOperator::Close() {
  Status status = child_->Close();
  Finish(/*publish=*/drained_ && status.ok());
  return status;
}

void BuildPublishOperator::Finish(bool publish) {
  if (finished_) return;
  finished_ = true;
  if (publish && state_ != nullptr && state_->CheckConsistency().ok()) {
    entry_->PublishBuild(slot_, version_, std::move(state_));
  } else {
    entry_->AbandonBuild(slot_);
  }
}

bool ClaimPmapBuild(FormatScanContext& tc) {
  if (tc.building_pmap != nullptr) return true;
  if (!tc.entry->TryClaimBuild(AdaptiveSlot::kPositionalMap, tc.version)) {
    return false;
  }
  const TableInfo& info = tc.entry->info;
  tc.building_pmap = std::make_shared<PositionalMap>(
      PositionalMap::WithStride(info.schema.num_fields(), info.pmap_stride));
  return true;
}

Schema QualifiedSchema(const TableEntry& entry, const std::vector<int>& cols) {
  Schema out;
  for (int c : cols) {
    out.AddField(QualifiedName(entry.info.name, entry.info.schema.field(c).name),
                 entry.info.schema.field(c).type);
  }
  return out;
}

OperatorPtr WrapQualified(OperatorPtr op, const Schema& qualified) {
  std::vector<int> idx(static_cast<size_t>(qualified.num_fields()));
  std::vector<std::string> names;
  for (int i = 0; i < qualified.num_fields(); ++i) {
    idx[static_cast<size_t>(i)] = i;
    names.push_back(qualified.field(i).name);
  }
  return std::make_unique<SelectColumnsOperator>(std::move(op), std::move(idx),
                                                 std::move(names));
}

bool AnyStringColumn(const Schema& schema, const std::vector<int>& cols) {
  for (int c : cols) {
    if (schema.field(c).type == DataType::kString) return true;
  }
  return false;
}

}  // namespace raw
