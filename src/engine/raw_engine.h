#ifndef RAW_ENGINE_RAW_ENGINE_H_
#define RAW_ENGINE_RAW_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "autotune/materializer.h"
#include "autotune/result_cache.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/session.h"
#include "engine/shred_cache.h"
#include "jit/template_cache.h"

namespace raw {

/// Engine-wide configuration.
struct RawEngineOptions {
  PlannerOptions planner;  // defaults inherited by new sessions
  CatalogOptions catalog;
  CcCompilerOptions jit_compiler;
  int64_t shred_cache_bytes = 1ll << 30;
  /// Lock shards of the shred cache (sessions touching different columns
  /// never contend); capacity splits evenly across shards.
  int shred_cache_shards = ShredCache::kDefaultNumShards;
  /// Background materializer knobs (off by default; the RAW_AUTOTUNE env
  /// knob overrides `autotune.enabled` at engine construction).
  autotune::MaterializerOptions autotune;
  /// Semantic result-cache budget; 0 disables the cache entirely. The
  /// RAW_RESULT_CACHE_BYTES env knob overrides at engine construction.
  int64_t result_cache_bytes = 0;
};

/// Live admission-control counters a serving tier (rawd) maintains on its
/// engine. The server increments them; EngineStats snapshots them, so load
/// shedding is observable through the same introspection surface as the
/// caches.
struct AdmissionCounters {
  std::atomic<int64_t> admitted{0};   // requests accepted into the queue
  std::atomic<int64_t> executed{0};   // requests that ran to completion
  std::atomic<int64_t> shed{0};       // fast-failed with OVERLOADED
  std::atomic<int64_t> deadline_expired{0};  // expired before/while running
  /// Live gauges (not monotonic): requests waiting in the admission queue /
  /// currently executing. The background materializer reads them as part of
  /// its idle predicate.
  std::atomic<int64_t> queued{0};
  std::atomic<int64_t> running{0};
};

/// Point-in-time snapshot of AdmissionCounters.
struct AdmissionStats {
  int64_t admitted = 0;
  int64_t executed = 0;
  int64_t shed = 0;
  int64_t deadline_expired = 0;
  int64_t queued = 0;
  int64_t running = 0;
};

/// Read-only snapshot of the engine's shared state: cache counters, query
/// counters, and per-table adaptive state. This is the introspection surface
/// — tests and benchmarks read stats instead of poking mutable internals.
struct EngineStats {
  CacheStats shred_cache;
  JitCacheStats jit_cache;
  /// Decoded-cluster buffer pools of every open REF file, aggregated
  /// (hit/miss/eviction counters of the sharded ClusterBufferPool).
  ClusterPoolStats ref_pool;
  std::vector<TableStats> tables;

  int64_t sessions_opened = 0;
  /// Sessions whose handles have been destroyed; opened - closed = live.
  int64_t sessions_closed = 0;
  /// Serving-tier admission counters (all zero when no server runs).
  AdmissionStats admission;
  /// SQL statements parsed + bound (Prepare counts once; re-executing a
  /// PreparedQuery does not re-parse — that is the point).
  int64_t queries_parsed = 0;
  /// Physical plans built.
  int64_t queries_planned = 0;
  /// Plans executed (materialized or streamed).
  int64_t queries_executed = 0;
  /// Foreground queries currently holding a live plan (gauge).
  int64_t queries_inflight = 0;
  /// Semantic result cache (all zero when disabled).
  autotune::ResultCacheStats result_cache;
  /// Background materializer (all zero when disabled).
  autotune::MaterializerStats materializer;
  /// Plans that ran through a fused JIT pipeline vs. interpreted operators.
  int64_t plans_fused = 0;
  int64_t plans_interpreted = 0;
  /// Plans that ran interpreted while their kernel compiled in the
  /// background (or could not compile) under JitFusion::kAuto.
  int64_t plans_jit_deferred = 0;
  /// Robustness totals across every query on this engine: rows dropped /
  /// zero-filled under tolerant malformed-row policies, typed I/O faults
  /// scans detected (truncation, corruption, injected errors), and fault
  /// injections actually fired (0 unless RAW_FAULT_INJECT is armed).
  int64_t rows_skipped = 0;
  int64_t rows_nulled = 0;
  int64_t io_faults = 0;
  int64_t faults_injected = 0;

  bool jit_compiler_available() const {
    return jit_cache.compiler_available;
  }

  /// Convenience lookup; null when the table is unknown.
  const TableStats* table(const std::string& name) const {
    for (const TableStats& t : tables) {
      if (t.name == name) return &t;
    }
    return nullptr;
  }

  int64_t sessions_active() const {
    return sessions_opened - sessions_closed;
  }
};

/// RAW — the adaptive raw-data query engine. Register raw files once, then
/// query them with SQL; the engine adapts to each file format and query by
/// generating Just-In-Time access paths and materializing column shreds,
/// caching both for future queries.
///
/// The engine core is thread-safe and server-shaped: one shared RawEngine
/// owns the catalog and every adaptive cache (sharded shred pool, JIT
/// template cache, positional maps) behind proper synchronization, while
/// per-client Sessions carry planner options, prepared statements and
/// streaming cursors. Any number of sessions may run queries concurrently;
/// warm state is shared across all of them.
///
///   RawEngine engine;
///   engine.RegisterCsv("t", "/data/t.csv", schema);
///   auto session = engine.OpenSession();
///   auto result = session->Query("SELECT MAX(col11) FROM t WHERE col1 < 100");
class RawEngine {
 public:
  explicit RawEngine(RawEngineOptions options = RawEngineOptions());

  // --- registration (thread-safe) --------------------------------------------
  Status RegisterCsv(const std::string& name, const std::string& path,
                     Schema schema, CsvOptions csv = CsvOptions(),
                     int pmap_stride = 10) {
    return catalog_.RegisterCsv(name, path, std::move(schema), csv,
                                pmap_stride);
  }
  /// Registers a CSV file whose schema is *inferred* by sampling its rows —
  /// no description of the file needed at all. Inference and later scans
  /// share the same CsvOptions (including quoting), so the schema the
  /// sampler sees is exactly what queries will parse; a sampling failure
  /// surfaces as a Status annotated with the file, never a silent fallback.
  Status RegisterCsvInferred(const std::string& name, const std::string& path,
                             CsvOptions csv = CsvOptions(),
                             int pmap_stride = 10);
  Status RegisterBinary(const std::string& name, const std::string& path,
                        Schema schema) {
    return catalog_.RegisterBinary(name, path, std::move(schema));
  }
  Status RegisterRef(const std::string& prefix, const std::string& path) {
    return catalog_.RegisterRef(prefix, path);
  }
  /// Registers a line-delimited JSON file (one flat object per line).
  Status RegisterJsonl(const std::string& name, const std::string& path,
                       Schema schema, int pmap_stride = 10) {
    return catalog_.RegisterJsonl(name, path, std::move(schema), pmap_stride);
  }
  /// Registers a gzip-compressed CSV file (single- or multi-member).
  Status RegisterCsvGz(const std::string& name, const std::string& path,
                       Schema schema, CsvOptions csv = CsvOptions()) {
    return catalog_.RegisterCsvGz(name, path, std::move(schema), csv);
  }

  // --- sessions --------------------------------------------------------------
  /// Opens a client session with the engine's default planner options (or an
  /// explicit override). Sessions are cheap; open one per client thread.
  /// The returned handle must not outlive the engine.
  std::unique_ptr<Session> OpenSession();
  std::unique_ptr<Session> OpenSession(const PlannerOptions& options);

  // --- introspection ---------------------------------------------------------
  /// Read-only snapshot of caches, counters and per-table adaptive state.
  EngineStats Stats() const;

  /// Deep read-only introspection: the published positional map of `table`
  /// (null when none). The snapshot is immutable and safe to keep.
  StatusOr<std::shared_ptr<const PositionalMap>> PositionalMapSnapshot(
      const std::string& table);

  /// Read-only introspection: true when the shred pool holds the complete
  /// `column` of `table`'s current file generation (no LRU refresh, no
  /// counter side effects).
  bool ShredCacheContainsFull(const std::string& table, int column) const;

  /// Best-effort OS page-cache drop for `table`'s file (cold-run benches).
  Status DropFilePageCache(const std::string& table);

  const RawEngineOptions& options() const { return options_; }

  /// Mutable admission counters for a serving tier running on this engine
  /// (rawd's AdmissionController increments them). Thread-safe.
  AdmissionCounters& admission_counters() { return admission_; }

  /// Foreground-activity signal: refreshes the idle clock and preempts any
  /// running background build. Session planning calls this automatically;
  /// serving tiers call it at request admission so a queued query preempts
  /// background work before it even plans.
  void NoteForegroundActivity();

  /// The background materializer (never null; inert unless enabled).
  autotune::BackgroundMaterializer* materializer() {
    return materializer_.get();
  }

  /// The semantic result cache, or null when disabled.
  autotune::ResultCache* result_cache() { return result_cache_.get(); }

  /// Drops all adaptive state (shred pool + compiled-kernel cache + maps +
  /// REF decoded-cluster caches), reverting the engine to its
  /// freshly-started behaviour. Safe against in-flight sessions: running
  /// queries hold immutable snapshots (and pinned cluster handles) and
  /// simply finish on the state they started with.
  void ResetAdaptiveState();

 private:
  friend class Cursor;
  friend class Session;
  friend class autotune::BackgroundMaterializer;

  /// Marks the start/end of a foreground query's plan lifetime (the inflight
  /// gauge the materializer's idle predicate watches). Begin also preempts
  /// background work; End restarts the idle clock.
  void BeginQuery();
  void EndQuery();

  /// Adds one plan's ScanHealth to the robustness totals (Cursor::Close).
  void FoldScanHealth(const ScanHealth& health);

  /// Opens the materializer's session: single-threaded plans, excluded from
  /// query counters, access mining and the result cache.
  std::unique_ptr<Session> OpenInternalSession();

  /// Result-cache key: the spec's structural fingerprint plus the version
  /// each table was pinned at (so a changed file can never serve old bytes,
  /// even if an invalidation sweep were missed).
  static std::string ResultCacheKey(
      const QuerySpec& spec, const std::vector<FormatScanContext>& pinned);

  RawEngineOptions options_;
  Catalog catalog_;
  JitTemplateCache jit_;
  ShredCache shreds_;
  Planner planner_;

  std::atomic<int64_t> next_session_id_{1};
  std::atomic<int64_t> sessions_opened_{0};
  std::atomic<int64_t> sessions_closed_{0};
  AdmissionCounters admission_;
  std::atomic<int64_t> queries_parsed_{0};
  std::atomic<int64_t> queries_planned_{0};
  std::atomic<int64_t> queries_executed_{0};
  std::atomic<int64_t> queries_inflight_{0};
  /// Robustness accumulators (see EngineStats); each plan's cursor folds its
  /// ScanHealth in once, including for queries that failed or were
  /// abandoned.
  std::atomic<int64_t> rows_skipped_{0};
  std::atomic<int64_t> rows_nulled_{0};
  std::atomic<int64_t> io_faults_{0};
  /// steady_clock ns of the last foreground activity (0 = never).
  std::atomic<int64_t> last_activity_ns_{0};

  std::unique_ptr<autotune::ResultCache> result_cache_;  // null when disabled
  /// Declared last: destroyed first, joining the worker thread while every
  /// structure it touches (catalog, caches, sessions) is still alive.
  std::unique_ptr<autotune::BackgroundMaterializer> materializer_;
};

}  // namespace raw

#endif  // RAW_ENGINE_RAW_ENGINE_H_
