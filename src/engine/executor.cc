#include "engine/executor.h"

#include <algorithm>

namespace raw {

StatusOr<Datum> QueryResult::ValueAt(int64_t row, int column) const {
  if (row < 0 || row >= table.num_rows() || column < 0 ||
      column >= table.num_columns()) {
    return Status::InvalidArgument("result index out of range");
  }
  return table.column(column)->GetDatum(row);
}

StatusOr<Datum> QueryResult::Scalar() const {
  if (table.num_rows() != 1 || table.num_columns() != 1) {
    return Status::InvalidArgument(
        "Scalar() requires a 1x1 result, got " +
        std::to_string(table.num_rows()) + "x" +
        std::to_string(table.num_columns()));
  }
  return ValueAt(0, 0);
}

// =============================================================================
// ParallelTableScanOperator
// =============================================================================

ParallelTableScanOperator::ParallelTableScanOperator(
    Schema output_schema, std::vector<OperatorPtr> children, Options options)
    : output_schema_(std::move(output_schema)),
      children_(std::move(children)),
      options_(std::move(options)) {
  if (options_.pool == nullptr) options_.pool = ThreadPool::Shared();
}

ParallelTableScanOperator::~ParallelTableScanOperator() { JoinWorkers(); }

Status ParallelTableScanOperator::Open() {
  if (started_) return Status::OK();  // Open is idempotent before first Next
  // Children open serially: JIT children compile (or hit the template cache)
  // here, so workers only ever run Next() concurrently.
  for (OperatorPtr& child : children_) {
    RAW_RETURN_NOT_OK(child->Open());
  }
  results_.assign(children_.size(), MorselResult{});
  emit_morsel_ = 0;
  emit_batch_ = 0;
  rows_emitted_ = 0;
  morsel_base_rows_ = 0;
  eof_ = false;
  return Status::OK();
}

void ParallelTableScanOperator::StartWorkers() {
  started_ = true;
  merge_enabled_ = options_.merge_pmap_into != nullptr &&
                   options_.merge_pmap_into->empty();
  merged_pmaps_ = 0;
  emit_progress_ = 0;
  const int workers = std::min<int>(std::max(options_.num_threads, 1),
                                    static_cast<int>(children_.size()));
  inflight_window_ = options_.max_inflight_morsels > 0
                         ? options_.max_inflight_morsels
                         : std::max<int64_t>(2 * workers, 4);
  workers_.reserve(static_cast<size_t>(workers));
  // Worker-only: a morsel worker blocks on this scan's backpressure, so a
  // thread waiting in HelpWait (possibly this scan's own consumer, e.g. a
  // parallel late fetch above the scan) must never run one inline.
  for (int w = 0; w < workers; ++w) {
    workers_.push_back(options_.pool->Submit(
        [this] { WorkerLoop(); }, ThreadPool::TaskKind::kWorkerOnly));
  }
}

void ParallelTableScanOperator::WorkerLoop() {
  while (!cancel_.load(std::memory_order_relaxed)) {
    const int64_t i = next_morsel_.fetch_add(1, std::memory_order_relaxed);
    if (i >= static_cast<int64_t>(children_.size())) return;
    {
      // Backpressure: don't run further ahead of the consumer than the
      // in-flight window. The morsel the consumer waits on is always within
      // the window (claims are monotonic), so this cannot deadlock.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this, i] {
        return cancel_.load(std::memory_order_relaxed) ||
               i < emit_progress_ + inflight_window_;
      });
    }
    if (cancel_.load(std::memory_order_relaxed)) return;
    MorselResult result;
    if (options_.deadline.expired()) {
      result.status = Status::ResourceExhausted("query deadline exceeded");
      std::lock_guard<std::mutex> lock(mu_);
      result.done = true;
      results_[static_cast<size_t>(i)] = std::move(result);
      cv_.notify_all();
      continue;
    }
    // `done` must be set on EVERY exit path — an unmarked morsel would park
    // the consumer's cv_.wait forever — so exceptions fold into the status.
    try {
      while (true) {
        StatusOr<ColumnBatch> batch =
            children_[static_cast<size_t>(i)]->Next();
        if (!batch.ok()) {
          result.status = batch.status();
          break;
        }
        if (batch->end_of_stream()) break;
        if (batch->empty()) continue;  // drop zero-row interior batches
        result.batches.push_back(std::move(batch).value());
      }
    } catch (const std::exception& e) {
      result.status =
          Status::Internal(std::string("parallel scan worker: ") + e.what());
      result.batches.clear();
    } catch (...) {
      result.status = Status::Internal("parallel scan worker threw");
      result.batches.clear();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      result.done = true;
      results_[static_cast<size_t>(i)] = std::move(result);
    }
    cv_.notify_all();
  }
}

StatusOr<ColumnBatch> ParallelTableScanOperator::Next() {
  if (eof_) return ColumnBatch::EndOfStream(output_schema_);
  if (!started_) StartWorkers();

  while (emit_morsel_ < children_.size()) {
    // Wait for the next morsel in file order. Never run queued pool tasks
    // inline here: a task of this very scan would block on the in-flight
    // window that only this consumer advances — a self-deadlock. Worker
    // tasks run on real pool threads and always notify cv_ when done.
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return results_[emit_morsel_].done; });
    }
    MorselResult& result = results_[emit_morsel_];
    RAW_RETURN_NOT_OK(result.status);
    while (merge_enabled_ && merged_pmaps_ <= emit_morsel_) {
      RAW_RETURN_NOT_OK(options_.merge_pmap_into->AppendFrom(
          *options_.partial_pmaps[merged_pmaps_]));
      ++merged_pmaps_;
    }
    if (emit_batch_ < result.batches.size()) {
      ColumnBatch batch = std::move(result.batches[emit_batch_]);
      ++emit_batch_;
      if (options_.rebase_row_ids && batch.has_row_ids()) {
        // Morsel-local ids (0-based, consecutive across the morsel's batches)
        // shift by the total row count of the preceding morsels.
        std::vector<int64_t> ids = batch.row_ids();
        for (int64_t& id : ids) id += morsel_base_rows_;
        batch.SetRowIds(std::move(ids));
      }
      rows_emitted_ += batch.num_rows();
      return batch;
    }
    morsel_base_rows_ = rows_emitted_;
    ++emit_morsel_;
    emit_batch_ = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      emit_progress_ = static_cast<int64_t>(emit_morsel_);
    }
    cv_.notify_all();  // widen the in-flight window
  }

  eof_ = true;
  return ColumnBatch::EndOfStream(output_schema_);
}

void ParallelTableScanOperator::JoinWorkers() {
  cancel_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);  // wake backpressure waiters
  }
  cv_.notify_all();
  for (std::future<void>& fut : workers_) {
    options_.pool->HelpWait(fut);
    fut.get();
  }
  workers_.clear();
  cancel_.store(false, std::memory_order_relaxed);
}

Status ParallelTableScanOperator::Close() {
  JoinWorkers();
  Status status = Status::OK();
  for (OperatorPtr& child : children_) {
    Status st = child->Close();
    if (status.ok()) status = std::move(st);
  }
  return status;
}

}  // namespace raw
