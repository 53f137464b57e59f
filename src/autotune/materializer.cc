#include "autotune/materializer.h"

#include <algorithm>
#include <chrono>

#include "engine/cost_model.h"
#include "engine/raw_engine.h"
#include "engine/session.h"

namespace raw {
namespace autotune {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rough per-value materialized width for byte-budget estimates.
int64_t TypeWidth(DataType type) {
  switch (type) {
    case DataType::kBool:
      return 1;
    case DataType::kInt32:
    case DataType::kFloat32:
      return 4;
    case DataType::kInt64:
    case DataType::kFloat64:
      return 8;
    case DataType::kString:
      return 24;  // pointer-ish + short payload
  }
  return 8;
}

/// Index of the most-accessed column (ties to the lowest index).
int HottestColumn(const std::vector<int64_t>& accesses) {
  int hot = 0;
  int64_t best = -1;
  for (size_t i = 0; i < accesses.size(); ++i) {
    if (accesses[i] > best) {
      best = accesses[i];
      hot = static_cast<int>(i);
    }
  }
  return hot;
}

/// `SELECT cols... FROM table` as a programmatic spec (no SQL round-trip).
QuerySpec ProjectionSpec(const std::string& table, const Schema& schema,
                         const std::vector<int>& cols) {
  QuerySpec spec;
  spec.tables.push_back(table);
  for (int c : cols) {
    ColumnRefSpec ref;
    ref.table = table;
    ref.column = schema.field(c).name;
    spec.projections.push_back(std::move(ref));
  }
  return spec;
}

}  // namespace

BackgroundMaterializer::BackgroundMaterializer(RawEngine* engine,
                                               MaterializerOptions options)
    : engine_(engine), options_(std::move(options)) {}

BackgroundMaterializer::~BackgroundMaterializer() { Stop(); }

void BackgroundMaterializer::Start() {
  if (!options_.enabled || started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_release);
  worker_ = std::thread([this] { WorkerLoop(); });
}

void BackgroundMaterializer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  started_ = false;
}

void BackgroundMaterializer::Preempt() {
  preempt_.store(true, std::memory_order_release);
}

bool BackgroundMaterializer::EngineIdle() const {
  if (engine_->queries_inflight_.load(std::memory_order_acquire) != 0) {
    return false;
  }
  const AdmissionCounters& adm = engine_->admission_;
  if (adm.queued.load(std::memory_order_acquire) != 0 ||
      adm.running.load(std::memory_order_acquire) != 0) {
    return false;
  }
  int64_t last = engine_->last_activity_ns_.load(std::memory_order_acquire);
  return NowNs() - last >= options_.idle_wait_ms * 1000000;
}

bool BackgroundMaterializer::ShouldYield() const {
  return stop_.load(std::memory_order_acquire) ||
         preempt_.load(std::memory_order_acquire) ||
         engine_->queries_inflight_.load(std::memory_order_acquire) > 0 ||
         engine_->admission_.queued.load(std::memory_order_acquire) > 0 ||
         engine_->admission_.running.load(std::memory_order_acquire) > 0;
}

std::vector<BackgroundMaterializer::Action>
BackgroundMaterializer::MineActions() {
  std::vector<Action> actions;
  CostModel cost_model;
  int64_t budget_left = engine_->shreds_.capacity_bytes() -
                        engine_->shreds_.Stats().bytes;
  for (const TableStats& t : engine_->catalog_.Stats()) {
    // REF tables multiplex a shared reader with its own buffer pool;
    // speculative per-entry work does not apply.
    if (t.format == FileFormat::kRef) continue;
    if (t.scans < options_.min_table_scans) continue;
    StatusOr<TableEntry*> entry_or = engine_->catalog_.Lookup(t.name);
    if (!entry_or.ok()) continue;
    const Schema& schema = entry_or.value()->info.schema;
    if (schema.num_fields() == 0) continue;
    const int64_t rows =
        t.row_count >= 0
            ? t.row_count
            : std::max<int64_t>(t.file_size > 0 ? t.file_size / 32 : 1, 1);

    ShredDecisionInput in;
    in.format = t.format;
    in.table_rows = rows;
    // What one more cold query would pay to materialize a column of this
    // table — the benefit a completed build saves on every future scan.
    const double full_cost = cost_model.FullColumnCost(in);

    const bool needs_nav =
        ((t.format == FileFormat::kCsv || t.format == FileFormat::kJsonl) &&
         t.pmap_rows == 0) ||
        (t.format == FileFormat::kCsvGz && t.format_state_bytes == 0);
    if (needs_nav) {
      // Completing navigation state (positional map / block index) is the
      // cheapest, highest-leverage action: every later access path uses it.
      // One full streamed pass over the hottest column builds + publishes it
      // through the ordinary claim/publish protocol.
      Action a;
      a.kind = Action::Kind::kNavigation;
      a.table = t.name;
      a.spec = ProjectionSpec(t.name, schema,
                              {HottestColumn(t.column_accesses)});
      a.score = 2.0 * static_cast<double>(t.scans) * full_cost;
      actions.push_back(std::move(a));
      // Column mining waits until the map exists (next idle pass): late
      // scans through the map change what is worth caching.
      continue;
    }

    // Small hot table: cache *every* column (the "fully load" action),
    // subsuming per-column work.
    int64_t est_all = 0;
    std::vector<int> missing;
    for (int c = 0; c < schema.num_fields(); ++c) {
      if (engine_->shreds_.ContainsFull(t.name, c, t.version)) continue;
      missing.push_back(c);
      est_all += rows * TypeWidth(schema.field(c).type);
    }
    if (missing.empty()) continue;  // fully resident already
    if (t.file_size >= 0 && t.file_size <= options_.full_load_max_bytes) {
      if (est_all <= budget_left) {
        Action a;
        a.kind = Action::Kind::kLoadTable;
        a.table = t.name;
        a.spec = ProjectionSpec(t.name, schema, missing);
        a.score = static_cast<double>(t.scans) * full_cost *
                  static_cast<double>(missing.size());
        budget_left -= est_all;
        actions.push_back(std::move(a));
      } else {
        actions_skipped_budget_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }

    // Large table: materialize individual hot columns.
    for (int c : missing) {
      const int64_t accesses =
          c < static_cast<int>(t.column_accesses.size())
              ? t.column_accesses[static_cast<size_t>(c)]
              : 0;
      if (accesses < options_.min_column_accesses) continue;
      const int64_t est = rows * TypeWidth(schema.field(c).type);
      if (est > budget_left) {
        actions_skipped_budget_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Action a;
      a.kind = Action::Kind::kCacheColumn;
      a.table = t.name;
      a.spec = ProjectionSpec(t.name, schema, {c});
      a.score = static_cast<double>(accesses) * full_cost;
      budget_left -= est;
      actions.push_back(std::move(a));
    }
  }
  std::sort(actions.begin(), actions.end(),
            [](const Action& a, const Action& b) { return a.score > b.score; });
  return actions;
}

bool BackgroundMaterializer::RunAction(Session* session,
                                       const Action& action) {
  actions_started_.fetch_add(1, std::memory_order_relaxed);
  StatusOr<Cursor> cursor_or = session->ExecuteStream(action.spec);
  if (!cursor_or.ok()) {
    actions_failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Cursor cursor = std::move(cursor_or).value();
  while (true) {
    if (options_.batch_hook) options_.batch_hook();
    if (ShouldYield()) {
      // Abandoning the cursor mid-stream is the preemption contract: its
      // Close() releases the build claims, nothing partial is published,
      // and the foreground query proceeds as if we never ran.
      actions_preempted_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    StatusOr<ColumnBatch> batch = cursor.Next();
    if (!batch.ok()) {
      actions_failed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (batch.value().empty()) break;  // full drain: side effects published
    if (options_.throttle_us_per_batch > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.throttle_us_per_batch));
    }
  }
  actions_completed_.fetch_add(1, std::memory_order_relaxed);
  switch (action.kind) {
    case Action::Kind::kNavigation:
      pmaps_built_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Action::Kind::kCacheColumn:
      columns_cached_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Action::Kind::kLoadTable:
      tables_loaded_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return true;
}

void BackgroundMaterializer::WorkerLoop() {
  // The internal session plans single-threaded (the drain happens on this
  // thread, batch by batch — the preemption granularity) and is excluded
  // from query counters, access mining, and the result cache.
  std::unique_ptr<Session> session = engine_->OpenInternalSession();
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms), [this] {
        return stop_.load(std::memory_order_acquire);
      });
    }
    if (stop_.load(std::memory_order_acquire)) break;
    if (!EngineIdle()) continue;
    preempt_.store(false, std::memory_order_release);
    std::vector<Action> actions = MineActions();
    if (actions.empty()) continue;
    passes_.fetch_add(1, std::memory_order_relaxed);
    for (const Action& action : actions) {
      if (ShouldYield()) break;
      RunAction(session.get(), action);
    }
  }
}

MaterializerStats BackgroundMaterializer::Stats() const {
  MaterializerStats stats;
  stats.passes = passes_.load(std::memory_order_relaxed);
  stats.actions_started = actions_started_.load(std::memory_order_relaxed);
  stats.actions_completed =
      actions_completed_.load(std::memory_order_relaxed);
  stats.actions_preempted =
      actions_preempted_.load(std::memory_order_relaxed);
  stats.actions_failed = actions_failed_.load(std::memory_order_relaxed);
  stats.actions_skipped_budget =
      actions_skipped_budget_.load(std::memory_order_relaxed);
  stats.pmaps_built = pmaps_built_.load(std::memory_order_relaxed);
  stats.columns_cached = columns_cached_.load(std::memory_order_relaxed);
  stats.tables_loaded = tables_loaded_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace autotune
}  // namespace raw
