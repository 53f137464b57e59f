#include "engine/session.h"

#include "common/stopwatch.h"
#include "engine/raw_engine.h"
#include "engine/sql/binder.h"
#include "engine/sql/parser.h"

namespace raw {

namespace {

/// EXPLAIN results materialize as a one-row, one-column table.
ColumnBatch ExplainBatch(const std::string& description) {
  ColumnBatch table(Schema{{"plan", DataType::kString}});
  auto col = std::make_shared<Column>(DataType::kString);
  col->AppendString(description);
  table.AddColumn(std::move(col));
  table.SetNumRows(1);
  return table;
}

}  // namespace

// =============================================================================
// Cursor
// =============================================================================

Cursor::~Cursor() {
  Status ignored = Close();
  (void)ignored;
}

Cursor Cursor::FromBatch(ColumnBatch batch, std::string description,
                         double plan_seconds, double compile_seconds) {
  Cursor cursor;
  cursor.plan_.description = std::move(description);
  cursor.empty_schema_ = batch.schema();
  cursor.pending_ = std::make_unique<ColumnBatch>(std::move(batch));
  cursor.plan_seconds_ = plan_seconds;
  cursor.compile_seconds_ = compile_seconds;
  return cursor;
}

const Schema& Cursor::schema() const {
  if (plan_.root != nullptr) return plan_.root->output_schema();
  if (pending_ != nullptr) return pending_->schema();
  return empty_schema_;
}

Status Cursor::EnsureOpen() {
  if (opened_ || plan_.root == nullptr) return Status::OK();
  RAW_RETURN_NOT_OK(plan_.root->Open());
  opened_ = true;
  return Status::OK();
}

StatusOr<ColumnBatch> Cursor::Next() {
  if (pending_ != nullptr) {
    ColumnBatch batch = std::move(*pending_);
    pending_.reset();
    return batch;
  }
  if (eof_ || closed_ || plan_.root == nullptr) {
    if (plan_.root == nullptr) eof_ = true;
    return ColumnBatch(schema());
  }
  if (plan_.deadline.expired()) {
    return Status::ResourceExhausted("query deadline exceeded");
  }
  Stopwatch watch;
  RAW_RETURN_NOT_OK(EnsureOpen());
  // Zero-row data batches (a fully filtered morsel, say) are legal
  // mid-stream; only the EndOfStream sentinel terminates. Loop past the
  // former so clients keep the simple "empty batch == done" contract.
  StatusOr<ColumnBatch> batch = plan_.root->Next();
  while (batch.ok() && !batch->end_of_stream() && batch->empty()) {
    batch = plan_.root->Next();
  }
  execute_seconds_ += watch.ElapsedSeconds();
  if (batch.ok() && batch->end_of_stream()) {
    eof_ = true;
    // Close eagerly so end-of-stream side effects (shred-cache population,
    // positional-map publication) land without waiting for destruction.
    RAW_RETURN_NOT_OK(Close());
    return ColumnBatch(schema());
  }
  return batch;
}

StatusOr<QueryResult> Cursor::Consume() {
  std::vector<ColumnBatch> batches;
  Schema result_schema = schema();
  while (true) {
    RAW_ASSIGN_OR_RETURN(ColumnBatch batch, Next());
    if (batch.empty()) break;
    batches.push_back(std::move(batch));
  }
  QueryResult result;
  RAW_ASSIGN_OR_RETURN(result.table, ConcatBatches(result_schema, batches));
  result.plan_description = plan_.description + plan_.RuntimeDescription();
  result.plan_seconds = plan_seconds_;
  result.compile_seconds = compile_seconds();
  result.execute_seconds = execute_seconds_;
  return result;
}

Status Cursor::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (plan_.root != nullptr && opened_) {
    return plan_.root->Close();
  }
  return Status::OK();
}

// =============================================================================
// PreparedQuery
// =============================================================================

StatusOr<QuerySpec> PreparedQuery::BindParams(
    const std::vector<Datum>& params) const {
  if (static_cast<int>(params.size()) != spec_.num_params) {
    return Status::InvalidArgument(
        "prepared query expects " + std::to_string(spec_.num_params) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  QuerySpec bound = spec_;
  for (PredicateSpec& pred : bound.predicates) {
    if (!pred.is_parameter()) continue;
    // Coerce exactly like an inline literal would be.
    RAW_ASSIGN_OR_RETURN(
        pred.literal,
        CoerceLiteral(params[static_cast<size_t>(pred.param_index)],
                      pred.param_type));
    pred.param_index = -1;
  }
  bound.num_params = 0;
  return bound;
}

StatusOr<QueryResult> PreparedQuery::Execute(
    const std::vector<Datum>& params) {
  RAW_ASSIGN_OR_RETURN(QuerySpec bound, BindParams(params));
  return session_->ExecuteBound(bound, session_->options_);
}

StatusOr<Cursor> PreparedQuery::ExecuteStream(
    const std::vector<Datum>& params) {
  RAW_ASSIGN_OR_RETURN(QuerySpec bound, BindParams(params));
  return session_->StreamBound(bound, session_->options_);
}

// =============================================================================
// Session
// =============================================================================

Session::~Session() {
  if (!internal_) {
    engine_->sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  }
}

StatusOr<QuerySpec> Session::Parse(const std::string& sql) {
  RAW_ASSIGN_OR_RETURN(QuerySpec spec, sql::Parse(sql));
  RAW_RETURN_NOT_OK(sql::Bind(&engine_->catalog_, &spec));
  if (!internal_) {
    engine_->queries_parsed_.fetch_add(1, std::memory_order_relaxed);
  }
  return spec;
}

StatusOr<PreparedQuery> Session::Prepare(const std::string& sql) {
  RAW_ASSIGN_OR_RETURN(QuerySpec spec, Parse(sql));
  return PreparedQuery(this, std::move(spec));
}

StatusOr<PhysicalPlan> Session::PlanSpec(const QuerySpec& spec,
                                         std::vector<FormatScanContext> pinned,
                                         const PlannerOptions& options,
                                         double* plan_seconds) {
  // Foreground queries raise the inflight gauge for their plan's whole
  // lifetime (streaming cursors included): the guard rides in the plan's
  // resource list and lowers it when the plan is destroyed. Raising it also
  // preempts any background build before planning does real work.
  std::shared_ptr<const void> inflight_guard;
  if (!internal_) {
    RawEngine* engine = engine_;
    engine->BeginQuery();
    inflight_guard = std::shared_ptr<const void>(
        static_cast<const void*>(nullptr),
        [engine](const void*) { engine->EndQuery(); });
  }
  Stopwatch watch;
  RAW_ASSIGN_OR_RETURN(
      PhysicalPlan plan,
      engine_->planner_.Plan(spec, std::move(pinned), options));
  *plan_seconds = watch.ElapsedSeconds();
  if (!internal_) {
    engine_->queries_planned_.fetch_add(1, std::memory_order_relaxed);
    plan.resources.push_back(std::move(inflight_guard));
  }
  return plan;
}

StatusOr<QueryResult> Session::Query(const std::string& sql) {
  return Query(sql, options_);
}

StatusOr<QueryResult> Session::Query(const std::string& sql,
                                     const PlannerOptions& options) {
  RAW_ASSIGN_OR_RETURN(QuerySpec spec, Parse(sql));
  return ExecuteBound(spec, options);
}

StatusOr<QueryResult> Session::Execute(const QuerySpec& spec) {
  return Execute(spec, options_);
}

StatusOr<QueryResult> Session::Execute(const QuerySpec& spec,
                                       const PlannerOptions& options) {
  QuerySpec bound = spec;
  RAW_RETURN_NOT_OK(sql::Bind(&engine_->catalog_, &bound));
  return ExecuteBound(bound, options);
}

StatusOr<QueryResult> Session::ExecuteBound(const QuerySpec& spec,
                                            const PlannerOptions& options) {
  RAW_ASSIGN_OR_RETURN(std::vector<FormatScanContext> pinned,
                       engine_->catalog_.Pin(spec.tables));
  // Semantic result cache: a repeated materializing execution (typically a
  // re-bound PreparedQuery — BindParams folds the bound values into the
  // predicate literals, so they are part of the fingerprint) returns the
  // cached result without planning or executing anything.
  std::string cache_key;
  autotune::ResultCache* cache = engine_->result_cache_.get();
  const bool cacheable =
      cache != nullptr && !internal_ && !spec.explain && spec.num_params == 0;
  if (cacheable) {
    cache_key = engine_->ResultCacheKey(spec, pinned);
    QueryResult cached;
    if (cache->Lookup(cache_key, &cached)) {
      // A hit is foreground activity (keeps the materializer polite) but
      // costs no planning or execution — report timings accordingly.
      engine_->NoteForegroundActivity();
      cached.plan_seconds = 0;
      cached.compile_seconds = 0;
      cached.execute_seconds = 0;
      cached.plan_description += " [result-cache hit]";
      return cached;
    }
  }
  double plan_seconds = 0;
  RAW_ASSIGN_OR_RETURN(
      PhysicalPlan plan,
      PlanSpec(spec, std::move(pinned), options, &plan_seconds));
  if (spec.explain) {
    // EXPLAIN: return the plan description as a one-row result.
    QueryResult result;
    result.plan_description = plan.description;
    result.plan_seconds = plan_seconds;
    result.compile_seconds = plan.health->jit_wait_seconds();
    result.table = ExplainBatch(plan.description);
    return result;
  }
  if (!internal_) {
    engine_->queries_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  // Keep the health block alive past the move so its totals reach the
  // engine-wide counters even when the drain fails mid-stream (typed I/O
  // faults on failed queries still count).
  std::shared_ptr<ScanHealth> health = plan.health;
  StatusOr<QueryResult> run = Executor::Run(std::move(plan));
  if (health != nullptr) {
    engine_->rows_skipped_.fetch_add(
        health->rows_skipped.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    engine_->rows_nulled_.fetch_add(
        health->rows_nulled.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    engine_->io_faults_.fetch_add(
        health->io_faults.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  RAW_RETURN_NOT_OK(run.status());
  QueryResult result = std::move(run).value();
  result.plan_seconds = plan_seconds;
  // Cost-aware admission: caching a result that took microseconds to compute
  // just evicts results worth keeping. Below the configured floor the query
  // re-executes on its next arrival instead.
  const bool worth_caching =
      result.execute_seconds * 1e6 >=
      static_cast<double>(engine_->options_.result_cache_min_us);
  if (cacheable && worth_caching) {
    cache->Insert(cache_key, result, spec.tables);
  }
  return result;
}

StatusOr<Cursor> Session::Stream(const std::string& sql) {
  return Stream(sql, options_);
}

StatusOr<Cursor> Session::Stream(const std::string& sql,
                                 const PlannerOptions& options) {
  RAW_ASSIGN_OR_RETURN(QuerySpec spec, Parse(sql));
  return StreamBound(spec, options);
}

StatusOr<Cursor> Session::ExecuteStream(const QuerySpec& spec) {
  return ExecuteStream(spec, options_);
}

StatusOr<Cursor> Session::ExecuteStream(const QuerySpec& spec,
                                        const PlannerOptions& options) {
  QuerySpec bound = spec;
  RAW_RETURN_NOT_OK(sql::Bind(&engine_->catalog_, &bound));
  return StreamBound(bound, options);
}

StatusOr<Cursor> Session::StreamBound(const QuerySpec& spec,
                                      const PlannerOptions& options) {
  RAW_ASSIGN_OR_RETURN(std::vector<FormatScanContext> pinned,
                       engine_->catalog_.Pin(spec.tables));
  double plan_seconds = 0;
  RAW_ASSIGN_OR_RETURN(
      PhysicalPlan plan,
      PlanSpec(spec, std::move(pinned), options, &plan_seconds));
  if (spec.explain) {
    return Cursor::FromBatch(ExplainBatch(plan.description), plan.description,
                             plan_seconds, plan.health->jit_wait_seconds());
  }
  if (!internal_) {
    engine_->queries_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  Cursor cursor(std::move(plan), plan_seconds);
  RAW_RETURN_NOT_OK(cursor.EnsureOpen());
  return cursor;
}

}  // namespace raw
