#ifndef RAW_ENGINE_SESSION_H_
#define RAW_ENGINE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/logical_plan.h"
#include "engine/physical_plan.h"
#include "format/format_driver.h"

namespace raw {

class RawEngine;
class Session;

/// A running plan, pulled RecordBatch at a time. Every query runs through
/// one: Session::Stream / ExecuteStream / PreparedQuery::ExecuteStream hand
/// it to the caller, and Session::Query / Execute / PreparedQuery::Execute
/// drain it with Consume().
///
///   auto cursor = session->Stream("SELECT ... FROM t");
///   while (true) {
///     RAW_ASSIGN_OR_RETURN(ColumnBatch batch, cursor->Next());
///     if (batch.empty()) break;   // end of stream
///     ...consume batch...
///   }
///
/// The cursor pins every snapshot its plan references (positional maps,
/// loaded tables, cached columns), so it keeps streaming correct results
/// even if RawEngine::ResetAdaptiveState() runs mid-stream. Abandoning a
/// cursor early is safe: Close() runs on destruction, releasing any
/// adaptive-state build claims the plan holds.
///
/// Close() also folds the plan's ScanHealth (rows skipped / null-filled,
/// I/O faults) into the engine's robustness totals — exactly once per plan,
/// whether the stream drained, failed or was abandoned.
///
/// A Cursor is single-consumer and not thread-safe; the engine underneath is.
class Cursor {
 public:
  Cursor() = default;
  Cursor(Cursor&&) = default;
  Cursor& operator=(Cursor&&) = default;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;
  ~Cursor();

  /// Schema of the batches this cursor yields.
  const Schema& schema() const;

  /// The next batch; an empty batch signals end of stream. The first call
  /// starts execution.
  StatusOr<ColumnBatch> Next();

  /// Drains the remaining stream into a materialized QueryResult (the
  /// entire result when called first).
  StatusOr<QueryResult> Consume();

  /// Releases plan resources and folds the plan's ScanHealth into the
  /// engine; idempotent, also runs on destruction.
  Status Close();

  bool done() const { return eof_; }
  const std::string& plan_description() const { return plan_.description; }
  double plan_seconds() const { return plan_seconds_; }
  /// Time this query's operators have waited for the JIT compiler so far.
  double compile_seconds() const {
    return plan_.health != nullptr ? plan_.health->jit_wait_seconds() : 0;
  }
  /// Execution time (opening the plan plus every Next()) so far.
  double execute_seconds() const { return execute_seconds_; }

 private:
  friend class Session;

  Cursor(RawEngine* engine, PhysicalPlan plan, double plan_seconds)
      : engine_(engine), plan_(std::move(plan)), plan_seconds_(plan_seconds) {}

  /// Opens the plan root (idempotent); called at creation so schema() is
  /// valid immediately and open-time errors surface from Stream(), not from
  /// the first Next().
  Status EnsureOpen();

  /// EXPLAIN: a one-row cursor holding the plan's description and health.
  /// The operator tree (and any build claims it holds) is dropped here.
  static Cursor Explain(RawEngine* engine, PhysicalPlan plan,
                        double plan_seconds);

  RawEngine* engine_ = nullptr;  // receives the ScanHealth fold
  PhysicalPlan plan_;
  Schema empty_schema_;
  std::unique_ptr<ColumnBatch> pending_;  // pre-materialized first batch
  bool opened_ = false;
  bool eof_ = false;
  bool closed_ = false;
  double plan_seconds_ = 0;
  double execute_seconds_ = 0;
};

/// A SQL statement parsed and bound once, re-executable with fresh `?`
/// parameter values. Re-execution skips the parse and bind phases entirely
/// (observable via EngineStats::queries_parsed) and reuses the planner's
/// adaptive state — the JIT template cache makes repeated plans cheap.
///
/// Holds a pointer to its Session; the session must outlive it.
class PreparedQuery {
 public:
  const QuerySpec& spec() const { return spec_; }
  int num_params() const { return spec_.num_params; }

  /// Executes with `params` bound positionally to the `?` placeholders
  /// (params.size() must equal num_params()).
  StatusOr<QueryResult> Execute(const std::vector<Datum>& params = {});

  /// Streaming flavour of Execute.
  StatusOr<Cursor> ExecuteStream(const std::vector<Datum>& params = {});

 private:
  friend class Session;

  PreparedQuery(Session* session, QuerySpec spec)
      : session_(session), spec_(std::move(spec)) {}

  /// Substitutes + type-coerces `params` into a directly executable spec.
  StatusOr<QuerySpec> BindParams(const std::vector<Datum>& params) const;

  Session* session_;
  QuerySpec spec_;
};

/// A per-client handle onto a shared RawEngine. Sessions carry the client's
/// planner options and prepared statements; the engine underneath owns the
/// catalog and all adaptive caches behind proper synchronization, so any
/// number of sessions can run queries concurrently — sharing warm positional
/// maps, column shreds and JIT'd kernels — with results identical to serial
/// execution.
///
/// A Session itself is a lightweight, externally synchronized handle: use
/// one per client thread (they are cheap), or guard a shared one yourself.
class Session {
 public:
  /// Notifies the engine (sessions_closed counter) — servers rely on this to
  /// verify that disconnects release their sessions.
  ~Session();

  const PlannerOptions& planner_options() const { return options_; }
  void set_planner_options(const PlannerOptions& options) {
    options_ = options;
  }

  /// Parses + binds `sql` without executing (EXPLAIN-style tooling, tests).
  /// Binding reads only the catalog's registry: no file is opened or
  /// checked until a query runs.
  StatusOr<QuerySpec> Parse(const std::string& sql);

  /// Parses + binds once; the result re-executes with new parameters.
  StatusOr<PreparedQuery> Prepare(const std::string& sql);

  /// Runs `sql` with the session's planner options (or an explicit
  /// override) and materializes the full result: a result-cache hit, or
  /// Stream(sql) drained by Cursor::Consume.
  StatusOr<QueryResult> Query(const std::string& sql);
  StatusOr<QueryResult> Query(const std::string& sql,
                              const PlannerOptions& options);

  /// Executes a programmatic logical query, bound first exactly like SQL
  /// (column qualification and literal coercion; see sql::Bind).
  StatusOr<QueryResult> Execute(const QuerySpec& spec);
  StatusOr<QueryResult> Execute(const QuerySpec& spec,
                                const PlannerOptions& options);

  /// Streaming flavours: batches are produced incrementally as the cursor
  /// is pulled, instead of materializing the whole result.
  StatusOr<Cursor> Stream(const std::string& sql);
  StatusOr<Cursor> Stream(const std::string& sql,
                          const PlannerOptions& options);
  StatusOr<Cursor> ExecuteStream(const QuerySpec& spec);
  StatusOr<Cursor> ExecuteStream(const QuerySpec& spec,
                                 const PlannerOptions& options);

  RawEngine* engine() const { return engine_; }
  int64_t id() const { return id_; }

 private:
  friend class RawEngine;
  friend class PreparedQuery;

  Session(RawEngine* engine, PlannerOptions options, int64_t id)
      : engine_(engine), options_(std::move(options)), id_(id) {}

  /// Runs a bound spec: a result-cache lookup, then StreamBound drained by
  /// Cursor::Consume on a miss.
  StatusOr<QueryResult> ExecuteBound(const QuerySpec& spec,
                                     const PlannerOptions& options);
  /// Pins each table once (Catalog::Pin), then OpenCursor.
  StatusOr<Cursor> StreamBound(const QuerySpec& spec,
                               const PlannerOptions& options);
  /// Plans `spec` over its pinned tables and opens the plan's cursor.
  StatusOr<Cursor> OpenCursor(const QuerySpec& spec,
                              std::vector<FormatScanContext> pinned,
                              const PlannerOptions& options);

  RawEngine* engine_;
  PlannerOptions options_;
  int64_t id_;
  /// Engine-internal session (the background materializer's): excluded from
  /// session/query counters, the foreground-activity signal, access-counter
  /// mining and the result cache — background work must never look like
  /// foreground traffic or reinforce its own heat signals.
  bool internal_ = false;
};

}  // namespace raw

#endif  // RAW_ENGINE_SESSION_H_
