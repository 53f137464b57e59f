#ifndef RAW_ENGINE_EXECUTOR_H_
#define RAW_ENGINE_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "common/datum.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "csv/positional_map.h"
#include "engine/physical_plan.h"

namespace raw {

/// A fully materialized query result plus execution metadata.
struct QueryResult {
  ColumnBatch table;
  double execute_seconds = 0;  // drain time (excludes planning)
  double plan_seconds = 0;     // planning time (includes JIT compilation
                               // and, for the DBMS baseline, data loading)
  double compile_seconds = 0;  // time this query waited for the JIT compiler
  std::string plan_description;
  /// Robustness totals read from the plan's ScanHealth after the drain:
  /// rows dropped / zero-filled under a tolerant malformed-row policy, and
  /// I/O faults (truncation, corruption) the scans detected and reported.
  int64_t rows_skipped = 0;
  int64_t rows_nulled = 0;
  int64_t io_faults = 0;

  int64_t num_rows() const { return table.num_rows(); }
  int num_columns() const { return table.num_columns(); }

  /// Value at (row, column); bounds-checked.
  StatusOr<Datum> ValueAt(int64_t row, int column) const;

  /// Single-value convenience for scalar aggregates.
  StatusOr<Datum> Scalar() const;

  double total_seconds() const { return plan_seconds + execute_seconds; }
};

/// The morsel-parallel table-scan driver: owns one pre-built scan operator
/// per morsel (all with the same output schema), drains them on the thread
/// pool — workers claim morsels from a shared atomic counter, so fast
/// workers steal the remaining work — and re-emits every batch in morsel
/// order. Downstream operators therefore observe exactly the serial row
/// order, which keeps parallel plans deterministic for any thread count.
class ParallelTableScanOperator : public Operator {
 public:
  struct Options {
    ThreadPool* pool = nullptr;  // defaults to ThreadPool::Shared()
    int num_threads = 1;
    /// Backpressure: workers stall before scanning a morsel more than this
    /// many positions ahead of the one being emitted, bounding buffered
    /// output to O(window × morsel) instead of the whole decoded table.
    /// 0 = auto (max(2 × num_threads, 4)).
    int64_t max_inflight_morsels = 0;
    /// CSV sequential morsels emit range-local row ids; rebase them by
    /// prefix sums of the morsel row counts so ids are file-global again.
    bool rebase_row_ids = false;
    /// When set, per-morsel partial positional maps (parallel to children)
    /// are appended into `merge_pmap_into` in morsel order, each just before
    /// its morsel's batches are emitted — so, as in the serial pipeline,
    /// every row handed downstream already has its map entry (late scans in
    /// the same query rely on this). Ignored if the target is non-empty.
    PositionalMap* merge_pmap_into = nullptr;
    std::vector<std::unique_ptr<PositionalMap>> partial_pmaps;
    /// Workers re-check this before claiming each morsel; once expired the
    /// scan stops producing and Next() returns ResourceExhausted.
    Deadline deadline;
  };

  ParallelTableScanOperator(Schema output_schema,
                            std::vector<OperatorPtr> children,
                            Options options);
  ~ParallelTableScanOperator() override;

  const Schema& output_schema() const override { return output_schema_; }
  Status Open() override;
  StatusOr<ColumnBatch> Next() override;
  Status Close() override;
  std::string name() const override { return "ParallelTableScan"; }

 private:
  struct MorselResult {
    std::vector<ColumnBatch> batches;
    Status status;
    bool done = false;
  };

  void StartWorkers();
  void WorkerLoop();
  void JoinWorkers();

  Schema output_schema_;
  std::vector<OperatorPtr> children_;
  Options options_;

  std::atomic<int64_t> next_morsel_{0};
  std::atomic<bool> cancel_{false};
  std::vector<std::future<void>> workers_;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<MorselResult> results_;
  int64_t emit_progress_ = 0;     // guarded by mu_; consumer's morsel index
  int64_t inflight_window_ = 1;  // fixed at StartWorkers()

  // Ordered-emission cursor (consumer side only).
  size_t emit_morsel_ = 0;
  size_t emit_batch_ = 0;
  size_t merged_pmaps_ = 0;
  bool merge_enabled_ = false;
  int64_t rows_emitted_ = 0;
  int64_t morsel_base_rows_ = 0;  // rows in fully emitted morsels (rebase)
  bool eof_ = false;
};

}  // namespace raw

#endif  // RAW_ENGINE_EXECUTOR_H_
