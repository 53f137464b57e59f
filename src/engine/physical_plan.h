#ifndef RAW_ENGINE_PHYSICAL_PLAN_H_
#define RAW_ENGINE_PHYSICAL_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "columnar/operator.h"
#include "common/deadline.h"
#include "common/scan_health.h"
#include "scan/access_path.h"

namespace raw {

/// Where newly needed columns get materialized (§5):
enum class ShredPolicy {
  /// "Full columns": every requested column is read by the bottom scan.
  kFullColumns,
  /// "Column shreds": scan operators pushed above filters; each column is
  /// fetched only for surviving rows, one late scan per predicate stage.
  kShreds,
  /// "Multi-column shreds" (§5.3.1): the first late scan speculatively also
  /// fetches the remaining needed nearby columns in the same pass.
  kMultiColumnShreds,
  /// Let the cost model decide per table, estimating predicate selectivity
  /// from cached columns (the paper's §8 future-work cost model).
  kAdaptive,
};

std::string_view ShredPolicyToString(ShredPolicy policy);

/// Placement of a join's projected column relative to the join (§5.3.2).
enum class JoinProjectionPlacement {
  kEarly,         // read with the base scan, before the join ("full columns")
  kIntermediate,  // after that side's filters, still before the join
  kLate,          // after the join (column shreds)
};

std::string_view JoinProjectionPlacementToString(JoinProjectionPlacement p);

/// Whether the planner may fuse whole scan→filter→project/aggregate
/// pipelines into one JIT-generated loop (RAW_JIT_FUSION).
enum class JitFusion {
  kOff,   // always interpreted operators (JIT scans still compile and wait)
  kOn,    // fuse every eligible pipeline; queries wait for the compiler
  /// Fuse and JIT-scan only with kernels already compiled: a missing kernel
  /// is compiled in the background while this query runs interpreted, so no
  /// query waits for the compiler (JitKernelReady).
  kAuto,
};

std::string_view JitFusionToString(JitFusion fusion);

/// Knobs the experiments sweep.
struct PlannerOptions {
  AccessPathKind access_path = AccessPathKind::kJit;
  ShredPolicy shred_policy = ShredPolicy::kShreds;
  JoinProjectionPlacement join_placement = JoinProjectionPlacement::kLate;
  int64_t batch_rows = kDefaultBatchRows;
  /// Use cached shreds / cached full columns when they subsume the request.
  bool use_shred_cache = true;
  /// Populate the shred cache with columns materialized by this query.
  bool populate_shred_cache = true;
  /// Build a positional map during first CSV scans.
  bool build_positional_map = true;
  /// kMultiColumnShreds: fetch an upstream column together with the current
  /// one when their column distance is at most this window.
  int speculation_window = 1000000;  // effectively "all remaining"
  /// Worker threads for morsel-parallel table scans and group-by partials.
  /// 1 preserves the single-threaded plans bit-for-bit; 0 = auto, resolving
  /// to $RAW_NUM_THREADS when set, else std::thread::hardware_concurrency().
  /// Parallel plans return identical results for every thread count (morsels
  /// re-emit in file order; group-by partials partition rows by key).
  int num_threads = 0;
  /// Per-query execution deadline (default: never expires). Morsel workers
  /// and Cursor::Next() check it and fail the query with ResourceExhausted
  /// once it passes; the serving tier maps that onto its wire error.
  Deadline deadline;
  /// Record this query in the per-(table, column) access counters the
  /// background materializer mines. Off for engine-internal sessions so
  /// speculative builds never reinforce their own heat signal.
  bool count_accesses = true;
  /// Pipeline fusion: compile eligible single-table
  /// scan→filter→project/aggregate plans into one generated loop. Ineligible
  /// shapes (joins, group-by, string/bool predicates, formats without a
  /// fusion plug-in) always fall back to interpreted operators.
  JitFusion jit_fusion = JitFusion::kAuto;
  /// What scans do with rows whose raw bytes fail to parse or convert
  /// (RAW_MALFORMED_ROWS / per-query override). Tolerant policies (kSkip,
  /// kNullFill) force full-column interpreted scans and disable positional-
  /// map building, shred caching, and pipeline fusion — skipping compacts
  /// row ids, which late scans and cached shreds would misinterpret.
  MalformedRowPolicy malformed_row_policy = MalformedRowPolicy::kFail;
};

/// Resolves PlannerOptions::num_threads (see above); always >= 1.
int ResolveNumThreads(int requested);

/// The executable plan: an operator tree plus the bookkeeping its Cursor
/// needs (per-query counters, explain text).
struct PhysicalPlan {
  /// Immutable snapshots the operator tree references by raw pointer (file
  /// handles, positional maps, loaded tables). Holding them here pins them
  /// for the plan's whole lifetime — streaming cursors keep working even if
  /// RawEngine::ResetAdaptiveState() or a stale-file reopen drops the
  /// engine's own references mid-stream. Declared before `root` so they are
  /// destroyed after it (operator destructors join scan workers that may
  /// still be reading them).
  std::vector<std::shared_ptr<const void>> resources;
  /// Counters scans of this plan update (rows skipped/null-filled under a
  /// tolerant malformed-row policy, I/O faults observed, time spent waiting
  /// for the JIT compiler). Owned here
  /// (and, like `resources`, outliving `root`) so scan specs can hold a raw
  /// pointer for the plan's whole lifetime; the plan's Cursor reports the
  /// totals in its result and folds them into the engine once, on Close.
  std::shared_ptr<ScanHealth> health;
  OperatorPtr root;
  std::string description;      // EXPLAIN-style summary
  Deadline deadline;            // propagated from PlannerOptions

  /// Describers invoked after the plan drains, appended to the reported
  /// plan description — for facts only known at execution time (hash-join
  /// build row/bucket stats, say). Each captures an operator owned by
  /// `root`, so they must not outlive the plan.
  std::vector<std::function<std::string()>> runtime_describers;

  /// Runs every runtime describer and concatenates the results.
  std::string RuntimeDescription() const {
    std::string out;
    for (const auto& fn : runtime_describers) out += fn();
    return out;
  }
};

}  // namespace raw

#endif  // RAW_ENGINE_PHYSICAL_PLAN_H_
