#include "engine/raw_engine.h"

#include <chrono>
#include <cstdlib>
#include <optional>

#include "common/env.h"
#include "common/fault_injector.h"
#include "csv/schema_inference.h"

namespace raw {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Status RawEngine::RegisterCsvInferred(const std::string& name,
                                      const std::string& path, CsvOptions csv,
                                      int pmap_stride) {
  // One CsvOptions drives both the sampling pass and every later scan, so
  // quoting/delimiter/header handling cannot diverge between them.
  StatusOr<Schema> schema = InferCsvSchema(path, csv);
  if (!schema.ok()) {
    return Status(schema.status().code(),
                  "schema inference for table '" + name + "' failed: " +
                      std::string(schema.status().message()));
  }
  return catalog_.RegisterCsv(name, path, std::move(schema).value(), csv,
                              pmap_stride);
}

RawEngine::RawEngine(RawEngineOptions options)
    : options_(std::move(options)),
      catalog_(options_.catalog),
      jit_(options_.jit_compiler),
      shreds_(options_.shred_cache_bytes, options_.shred_cache_shards),
      planner_(&jit_, &shreds_) {
  // Env knobs override the configured autotune defaults (strict parsing:
  // malformed values fall back rather than misconfigure silently).
  options_.autotune.enabled =
      GetEnvInt64("RAW_AUTOTUNE", options_.autotune.enabled ? 1 : 0, 0, 1) !=
      0;
  options_.result_cache_bytes = GetEnvInt64(
      "RAW_RESULT_CACHE_BYTES", options_.result_cache_bytes, 0, 1ll << 40);
  if (options_.result_cache_bytes > 0) {
    result_cache_ =
        std::make_unique<autotune::ResultCache>(options_.result_cache_bytes);
  }
  // RAW_JIT_FUSION: 0 = never fuse, 1 = fuse eligible pipelines and wait
  // for the compiler, auto = use generated code only once it is compiled
  // (JitFusion::kAuto). Same strict-parse discipline as the integer knobs.
  if (const char* fusion_env = std::getenv("RAW_JIT_FUSION")) {
    const std::string v(fusion_env);
    if (v == "0") {
      options_.planner.jit_fusion = JitFusion::kOff;
    } else if (v == "1") {
      options_.planner.jit_fusion = JitFusion::kOn;
    } else if (v == "auto") {
      options_.planner.jit_fusion = JitFusion::kAuto;
    } else {
      WarnMalformedEnvOnce("RAW_JIT_FUSION", v, "0, 1 or auto");
    }
  }
  // RAW_MALFORMED_ROWS: fail (default) | skip | null-fill — the engine-wide
  // default policy for rows whose raw bytes don't parse. Same strict-parse
  // discipline as the integer knobs.
  if (const char* policy_env = std::getenv("RAW_MALFORMED_ROWS")) {
    const std::string v(policy_env);
    if (std::optional<MalformedRowPolicy> p = ParseMalformedRowPolicy(v)) {
      options_.planner.malformed_row_policy = *p;
    } else {
      WarnMalformedEnvOnce("RAW_MALFORMED_ROWS", v, "fail, skip or null-fill");
    }
  }
  // A stale backing file purges every cached structure derived from it.
  catalog_.SetInvalidationCallback([this](const std::string& table) {
    shreds_.EraseTable(table);
    if (result_cache_ != nullptr) result_cache_->InvalidateTable(table);
  });
  materializer_ =
      std::make_unique<autotune::BackgroundMaterializer>(this,
                                                         options_.autotune);
  materializer_->Start();
}

std::unique_ptr<Session> RawEngine::OpenSession() {
  return OpenSession(options_.planner);
}

std::unique_ptr<Session> RawEngine::OpenSession(
    const PlannerOptions& options) {
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(
      this, options, next_session_id_.fetch_add(1, std::memory_order_relaxed)));
}

std::unique_ptr<Session> RawEngine::OpenInternalSession() {
  PlannerOptions options = options_.planner;
  // Single-threaded plans drain on the materializer's own thread, batch by
  // batch — that per-batch pull is the preemption granularity, and the
  // shared pool stays free for foreground morsels.
  options.num_threads = 1;
  options.count_accesses = false;
  if (options_.autotune.batch_rows > 0) {
    options.batch_rows = options_.autotune.batch_rows;
  }
  // Not via OpenSession: internal sessions stay out of the session counters.
  std::unique_ptr<Session> session(new Session(
      this, options, next_session_id_.fetch_add(1, std::memory_order_relaxed)));
  session->internal_ = true;
  return session;
}

void RawEngine::NoteForegroundActivity() {
  last_activity_ns_.store(NowNs(), std::memory_order_release);
  if (materializer_ != nullptr) materializer_->Preempt();
}

void RawEngine::BeginQuery() {
  queries_inflight_.fetch_add(1, std::memory_order_acq_rel);
  NoteForegroundActivity();
}

void RawEngine::EndQuery() {
  queries_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  // The idle clock starts when the last query *finishes*, not when it
  // arrived — a long query followed by silence is still a full quiet period.
  last_activity_ns_.store(NowNs(), std::memory_order_release);
}

void RawEngine::FoldScanHealth(const ScanHealth& health) {
  rows_skipped_.fetch_add(health.rows_skipped.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  rows_nulled_.fetch_add(health.rows_nulled.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  io_faults_.fetch_add(health.io_faults.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

std::string RawEngine::ResultCacheKey(
    const QuerySpec& spec, const std::vector<FormatScanContext>& pinned) {
  std::string key = spec.Fingerprint();
  for (const FormatScanContext& tc : pinned) {
    key += "|" + tc.entry->info.name + "@" + std::to_string(tc.version);
  }
  return key;
}

EngineStats RawEngine::Stats() const {
  EngineStats stats;
  stats.shred_cache = shreds_.Stats();
  stats.jit_cache = jit_.Stats();
  stats.ref_pool = catalog_.RefPoolStats();
  stats.tables = catalog_.Stats();
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.admission.admitted =
      admission_.admitted.load(std::memory_order_relaxed);
  stats.admission.executed =
      admission_.executed.load(std::memory_order_relaxed);
  stats.admission.shed = admission_.shed.load(std::memory_order_relaxed);
  stats.admission.deadline_expired =
      admission_.deadline_expired.load(std::memory_order_relaxed);
  stats.admission.queued = admission_.queued.load(std::memory_order_relaxed);
  stats.admission.running = admission_.running.load(std::memory_order_relaxed);
  stats.queries_parsed = queries_parsed_.load(std::memory_order_relaxed);
  stats.queries_planned = queries_planned_.load(std::memory_order_relaxed);
  stats.queries_executed = queries_executed_.load(std::memory_order_relaxed);
  stats.queries_inflight =
      queries_inflight_.load(std::memory_order_relaxed);
  if (result_cache_ != nullptr) stats.result_cache = result_cache_->Stats();
  if (materializer_ != nullptr) stats.materializer = materializer_->Stats();
  stats.plans_fused = planner_.plans_fused();
  stats.plans_interpreted = planner_.plans_interpreted();
  stats.plans_jit_deferred = planner_.plans_jit_deferred();
  stats.rows_skipped = rows_skipped_.load(std::memory_order_relaxed);
  stats.rows_nulled = rows_nulled_.load(std::memory_order_relaxed);
  stats.io_faults = io_faults_.load(std::memory_order_relaxed);
  stats.faults_injected = FaultInjector::Global().fired();
  return stats;
}

StatusOr<std::shared_ptr<const PositionalMap>>
RawEngine::PositionalMapSnapshot(const std::string& table) {
  RAW_ASSIGN_OR_RETURN(std::vector<FormatScanContext> pinned,
                       catalog_.Pin({table}));
  return pinned[0].published_pmap;
}

bool RawEngine::ShredCacheContainsFull(const std::string& table,
                                       int column) const {
  StatusOr<TableEntry*> entry = catalog_.Lookup(table);
  return entry.ok() &&
         shreds_.ContainsFull(table, column, entry.value()->version());
}

Status RawEngine::DropFilePageCache(const std::string& table) {
  RAW_ASSIGN_OR_RETURN(std::vector<FormatScanContext> pinned,
                       catalog_.Pin({table}));
  const MmapFile* file = pinned[0].file.get();
  return file != nullptr ? file->DropPageCache() : Status::OK();
}

void RawEngine::ResetAdaptiveState() {
  shreds_.Clear();
  jit_.Clear();
  catalog_.ResetAdaptiveState();
  // Cached results are adaptive state too: they were computed from the
  // structures just dropped, so they invalidate with them.
  if (result_cache_ != nullptr) result_cache_->Clear(/*count_invalidated=*/true);
}

}  // namespace raw
