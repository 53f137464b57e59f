// Shared pieces of the perfbench binary: the tracer, metric output, answer
// comparison, the reference query evaluator's data model and timed engine
// calls. Everything here is benchmark code; the engine is reached only
// through its public API.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/datum.h"
#include "common/status.h"
#include "engine/raw_engine.h"

namespace pb {

/// Seconds on the steady clock.
double NowS();

/// Linearly interpolated quantile (q in [0,1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Flushes every file in `dir` to disk, so writeback of the generated
/// inputs finishes during set-up instead of competing with the timed rounds.
raw::Status SyncDir(const std::string& dir);

/// Peak resident set (VmHWM) of a process, in MB; "self" for this one.
double PeakRssMb(const std::string& pid = "self");

// --- tracing ----------------------------------------------------------------

/// One timed call from the benchmark into a layer of the program.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;     // index of the enclosing span, -1 at the top
  int64_t query;  // query id the span belongs to, -1 for none
};

/// In-memory span recorder. Disabled (untraced runs), Begin/End cost one
/// branch. Spans nest by a stack: a span's parent is the innermost open one
/// on the same thread, so a tracer is used from one thread at a time.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name, int64_t query = -1);
  void End(int id);

  /// Duration of each span named `name`, grouped by query id and summed.
  std::map<int64_t, double> SecondsByQuery(const char* name) const;
  /// Durations of every span named `name`, in seconds.
  std::vector<double> Seconds(const char* name) const;
  /// Self time of every span named `name`: its duration minus the part its
  /// child spans cover.
  std::vector<double> SelfSeconds(const char* name) const;

  /// Writes every span as one JSON object per line.
  raw::Status Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; inert when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int64_t query = -1)
      : t_(t), id_(t->Begin(name, query)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// --- answers ----------------------------------------------------------------

/// A query result as plain numbers: every cell as a double (integers stay
/// exact below 2^53, which every generated aggregate is). `is_float` marks
/// the columns compared within kRelTol; the rest must match exactly.
struct Answer {
  std::vector<bool> is_float;
  std::vector<std::vector<double>> rows;

  void SortRows();
  std::string ToString() const;
};

/// Relative tolerance for floating-point aggregates (summation order
/// differs between the engine's morsels and the reference loop).
inline constexpr double kRelTol = 1e-9;

/// True when `actual` equals `expected` (same shape, exact integers, floats
/// within kRelTol).
bool SameAnswer(const Answer& expected, const Answer& actual);

/// Converts a result batch (appending to `out`).
void AppendBatch(const raw::ColumnBatch& batch, Answer* out);

// --- checks -----------------------------------------------------------------

/// Counts checks by category; a failed check marks the run incorrect.
class Checks {
 public:
  /// `what` describes a failed check; it runs only on failure.
  void Expect(const std::string& category, bool ok,
              const std::function<std::string()>& what);
  bool all_ok() const { return failed_total_ == 0; }
  /// Categories with at least one failed check.
  std::vector<std::string> FailedCategories() const;

 private:
  std::map<std::string, std::pair<int64_t, int64_t>> counts_;  // pass, fail
  int64_t failed_total_ = 0;
};

/// Consistency checks between answers the engine gave (pure functions, so
/// the self-test can feed them answers from another seed).
/// The same query over several formats of one table gave one answer.
bool SameAcrossFormats(const std::vector<Answer>& answers);
/// Per-group counts (column `count_col` of `grouped`) add up to the single
/// count of `ungrouped` under the same predicate.
bool GroupCountsAddUp(const Answer& grouped, size_t count_col,
                      const Answer& ungrouped);
/// Every request sent got a response, and the daemon admitted each one.
bool ServeCountsMatch(int64_t sent, int64_t responses, int64_t admitted_delta);

// --- the reference evaluator's data model -------------------------------------

enum class Agg { kCount, kSum, kMin, kMax, kAvg };

struct AggItem {
  Agg kind;
  std::string col;  // empty for COUNT(*)
};

struct Pred {
  std::string col;
  char op;  // '<' or '>'
  double literal;
};

/// A single-block query the engine runs as SQL and the reference evaluator
/// (oracle.cc) answers with plain loops. Column names may be qualified
/// (`t.col`) when the query joins.
struct Query {
  std::string table;
  std::string join_table;  // empty: no join
  std::string join_left;   // qualified column of `table`
  std::string join_right;  // qualified column of `join_table`
  std::string group;       // empty: no GROUP BY
  std::vector<AggItem> aggs;
  std::vector<Pred> preds;

  /// SQL text; `param` >= 0 renders that predicate's literal as `?`.
  std::string Sql(int param = -1) const;
};

// --- timed engine calls -------------------------------------------------------

/// One query's outcome as the benchmark saw it.
struct Outcome {
  raw::Status status = raw::Status::OK();
  Answer answer;
  double open_s = 0;   // Stream / ExecuteStream: parse, bind, plan, compile,
                       // operator open
  double drain_s = 0;  // the Cursor::Next loop
  double total_s() const { return open_s + drain_s; }
};

/// Runs `sql` through Session::Stream and drains the cursor, recording the
/// spans "query" > "engine.open", "cursor.next".
Outcome RunSql(raw::Session* session, const std::string& sql, Tracer* tracer,
               int64_t qid);

/// Same, re-executing a prepared statement with fresh parameters.
Outcome RunPrepared(raw::PreparedQuery* prepared,
                    const std::vector<raw::Datum>& params, Tracer* tracer,
                    int64_t qid);

// --- output -----------------------------------------------------------------

/// Metric values by name, as a workload measured them.
using Values = std::map<std::string, double>;

/// EngineStats counter deltas summed over rounds (each round may run on its
/// own engine), reported as the per-layer metrics every library workload
/// shares.
struct EngineTotals {
  double compiles = 0, compile_s = 0, jit_hits = 0, jit_misses = 0;
  double fused = 0, interpreted = 0;
  double shred_hits = 0, shred_misses = 0, shred_evictions = 0;
  double pool_hits = 0, pool_misses = 0;

  void Add(const raw::EngineStats& before, const raw::EngineStats& after);
  void Report(double rounds, Values* per_layer) const;
};

/// Operations (queries or requests) and the checks on their answers.
struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  Checks checks;
};

/// Workload entry point: builds inputs under `workdir`, runs rounds for
/// `seconds`, checks answers against the reference computed with
/// `oracle_seed` (the data seed except in the self-test).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  uint64_t oracle_seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;  // self-test scale
  std::string workdir;
  std::string rawd_path;
  double start_s = 0;  // process start on the NowS() clock
};

/// Planner threads of the library workloads' engines
/// (PlannerOptions::num_threads); rawd keeps its default, the CPU count. The
/// default 0 resolves to a host-dependent count, and with more than one
/// thread a query can deadlock now and then: a thread waiting in
/// ThreadPool::HelpWait for a parallel late fetch runs a queued morsel
/// worker of the scan it consumes, which then waits for that same thread.
inline constexpr int kPlannerThreads = 1;

/// Per-layer ratio helper: a / (a + b), 0 when both are 0.
double Share(double a, double b);

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
