#ifndef RAW_ENGINE_PLANNER_H_
#define RAW_ENGINE_PLANNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/catalog.h"
#include "engine/logical_plan.h"
#include "engine/physical_plan.h"
#include "engine/shred_cache.h"
#include "jit/template_cache.h"

namespace raw {

/// Converts logical queries into physical operator trees, making the
/// decisions §3 describes: which access path serves each field (parse raw /
/// positional-map jump / nearby position + incremental parse / cached
/// shred), where each scan operator sits in the plan (full columns vs column
/// shreds vs multi-column shreds; early/intermediate/late around joins), and
/// which kernels to JIT-compile.
class Planner {
 public:
  Planner(JitTemplateCache* jit, ShredCache* shreds)
      : jit_(jit), shreds_(shreds) {}

  /// Plans a bound `query` (see sql::Bind) over `pinned`, the query's
  /// tables as Catalog::Pin snapshotted them, in `query.tables` order.
  StatusOr<PhysicalPlan> Plan(const QuerySpec& query,
                              std::vector<FormatScanContext> pinned,
                              const PlannerOptions& options);

  /// How many plans ran through a fused JIT pipeline vs. interpreted
  /// operators (observability; serialized by the STATS wire command).
  int64_t plans_fused() const {
    return plans_fused_.load(std::memory_order_relaxed);
  }
  int64_t plans_interpreted() const {
    return plans_interpreted_.load(std::memory_order_relaxed);
  }
  /// Plans that ran interpreted operators where generated code would have
  /// run, because its kernel was not compiled yet (JitFusion::kAuto).
  int64_t plans_jit_deferred() const {
    return plans_jit_deferred_.load(std::memory_order_relaxed);
  }

 private:
  struct TableSide;  // planning state for one table (defined in planner.cc)

  JitTemplateCache* jit_;
  ShredCache* shreds_;
  std::atomic<int64_t> plans_fused_{0};
  std::atomic<int64_t> plans_interpreted_{0};
  std::atomic<int64_t> plans_jit_deferred_{0};
};

/// Internal field naming: every materialized column is qualified as
/// "<table>.<column>" so join outputs never collide and specs resolve
/// unambiguously at any plan level.
std::string QualifiedName(const std::string& table, const std::string& column);

}  // namespace raw

#endif  // RAW_ENGINE_PLANNER_H_
