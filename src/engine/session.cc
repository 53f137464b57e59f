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

Cursor Cursor::Explain(RawEngine* engine, PhysicalPlan plan,
                       double plan_seconds) {
  Cursor cursor;
  cursor.engine_ = engine;
  cursor.pending_ =
      std::make_unique<ColumnBatch>(ExplainBatch(plan.description));
  cursor.empty_schema_ = cursor.pending_->schema();
  cursor.plan_.description = std::move(plan.description);
  cursor.plan_.health = std::move(plan.health);
  cursor.plan_seconds_ = plan_seconds;
  return cursor;
}

const Schema& Cursor::schema() const {
  if (plan_.root != nullptr) return plan_.root->output_schema();
  if (pending_ != nullptr) return pending_->schema();
  return empty_schema_;
}

Status Cursor::EnsureOpen() {
  if (opened_ || plan_.root == nullptr) return Status::OK();
  // A deadline that lapsed during planning (or while queued in a server's
  // admission queue) must not start execution.
  if (plan_.deadline.expired()) {
    return Status::ResourceExhausted("query deadline exceeded");
  }
  Stopwatch watch;
  Status status = plan_.root->Open();
  execute_seconds_ += watch.ElapsedSeconds();
  RAW_RETURN_NOT_OK(status);
  opened_ = true;
  return Status::OK();
}

StatusOr<ColumnBatch> Cursor::Next() {
  if (pending_ != nullptr) {
    ColumnBatch batch = std::move(*pending_);
    pending_.reset();
    return batch;
  }
  if (eof_ || closed_) return ColumnBatch(schema());
  if (plan_.root == nullptr) {
    eof_ = true;
    RAW_RETURN_NOT_OK(Close());
    return ColumnBatch(schema());
  }
  if (plan_.deadline.expired()) {
    return Status::ResourceExhausted("query deadline exceeded");
  }
  RAW_RETURN_NOT_OK(EnsureOpen());
  Stopwatch watch;
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
  // Execution-time facts (join-build structure stats, ...) append once the
  // drain is done.
  result.plan_description = plan_.description + plan_.RuntimeDescription();
  result.plan_seconds = plan_seconds_;
  result.compile_seconds = compile_seconds();
  result.execute_seconds = execute_seconds_;
  if (plan_.health != nullptr) {
    result.rows_skipped =
        plan_.health->rows_skipped.load(std::memory_order_relaxed);
    result.rows_nulled =
        plan_.health->rows_nulled.load(std::memory_order_relaxed);
    result.io_faults = plan_.health->io_faults.load(std::memory_order_relaxed);
  }
  return result;
}

Status Cursor::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  Status status = Status::OK();
  if (plan_.root != nullptr && opened_) status = plan_.root->Close();
  // The plan's one fold: Close() has stopped every scan (morsel workers
  // included), so the totals are final. A failed drain still counts.
  if (engine_ != nullptr && plan_.health != nullptr) {
    engine_->FoldScanHealth(*plan_.health);
  }
  return status;
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
      // costs no planning or execution: cached entries carry no timings.
      engine_->NoteForegroundActivity();
      cached.plan_description += " [result-cache hit]";
      return cached;
    }
  }
  RAW_ASSIGN_OR_RETURN(Cursor cursor,
                       OpenCursor(spec, std::move(pinned), options));
  RAW_ASSIGN_OR_RETURN(QueryResult result, cursor.Consume());
  if (cacheable) cache->Insert(cache_key, result, spec.tables);
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
  return OpenCursor(spec, std::move(pinned), options);
}

StatusOr<Cursor> Session::OpenCursor(const QuerySpec& spec,
                                     std::vector<FormatScanContext> pinned,
                                     const PlannerOptions& options) {
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
  const double plan_seconds = watch.ElapsedSeconds();
  if (!internal_) {
    engine_->queries_planned_.fetch_add(1, std::memory_order_relaxed);
    plan.resources.push_back(std::move(inflight_guard));
  }
  if (spec.explain) {
    return Cursor::Explain(engine_, std::move(plan), plan_seconds);
  }
  if (!internal_) {
    engine_->queries_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  Cursor cursor(engine_, std::move(plan), plan_seconds);
  RAW_RETURN_NOT_OK(cursor.EnsureOpen());
  return cursor;
}

}  // namespace raw
