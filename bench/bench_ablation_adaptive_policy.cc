// Ablation: the self-tuning tier, policy by policy. Four systems answer the
// same repeated aggregation over the D30 CSV:
//
//   off            — no adaptive state carried at all: every query is a first
//                    query on a fresh engine (the floor the tiers climb from).
//   reactive       — the classic RAW behaviour: positional maps and column
//                    shreds materialize as side effects of foreground
//                    queries; the first query pays, later ones ride warm.
//   background     — the workload-driven materializer: after the table is hot
//                    and the engine goes idle, adaptive state is *rebuilt in
//                    the background*, so the first query after idle starts
//                    warm instead of cold.
//   +result-cache  — the semantic result cache on top: a repeated identical
//                    query is answered from cached results without planning
//                    or executing anything.
//
// Expect: background/first-after-idle ~= reactive/warm (not reactive/cold),
// and result_cache/hit >= 5x faster than its miss.

#include <algorithm>
#include <chrono>
#include <thread>

#include "bench/bench_common.h"

namespace raw::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Wall-clock seconds for one query (the result cache zeroes the engine's
/// internal timings on a hit, so only wall time compares fairly).
double WallTimedQuery(Session* session, const std::string& sql,
                      const PlannerOptions& options) {
  const auto t0 = Clock::now();
  CheckOk(session->Query(sql, options), sql.c_str());
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Blocks until the background materializer has completed work and gone
/// quiet again (no action mid-flight), or `budget_ms` elapses.
void AwaitBackgroundWarm(RawEngine* engine, int64_t budget_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  while (Clock::now() < deadline) {
    const autotune::MaterializerStats m = engine->Stats().materializer;
    const bool quiet =
        m.actions_started ==
        m.actions_completed + m.actions_preempted + m.actions_failed;
    if (m.actions_completed >= 1 && quiet) {
      // One settle poll: give a just-finished action's successor a beat to
      // start, so "quiet" means the pass is over, not between actions.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (engine->Stats().materializer.actions_started == m.actions_started) {
        return;
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  fprintf(stderr, "warning: background warm-up did not finish in %lldms\n",
          static_cast<long long>(budget_ms));
}

/// D30 CSV engine with the autotune tier configured per-system.
std::unique_ptr<RawEngine> AutotuneEngine(Dataset* dataset, bool background,
                                          int64_t result_cache_bytes) {
  RawEngineOptions engine_options;
  engine_options.autotune.enabled = background;
  engine_options.autotune.idle_wait_ms = 50;
  engine_options.autotune.poll_ms = 5;
  engine_options.result_cache_bytes = result_cache_bytes;
  auto engine = std::make_unique<RawEngine>(engine_options);
  CheckOk(engine->RegisterCsv("t", CheckOk(dataset->D30Csv(), "D30 csv"),
                              dataset->D30Spec().ToSchema(), CsvOptions(),
                              /*pmap_stride=*/10),
          "register csv");
  return engine;
}

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  const double sel = 0.5;
  const std::string query = Q2(&dataset, sel);
  PrintTitle("Ablation — autotune policy tiers (D30 CSV)");
  printf("rows=%lld  query: %s\n", static_cast<long long>(dataset.d30_rows()),
         query.c_str());

  PlannerOptions options;
  options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
  {
    auto probe = D30CsvEngine(&dataset, /*stride=*/10);
    options.access_path = probe->Stats().jit_compiler_available()
                              ? AccessPathKind::kJit
                              : AccessPathKind::kInSitu;
  }

  // --- off: every query is a first query ---------------------------------
  {
    auto engine = D30CsvEngine(&dataset, /*stride=*/10);
    auto session = engine->OpenSession();
    const double cold = WallTimedQuery(session.get(), query, options);
    auto engine2 = D30CsvEngine(&dataset, /*stride=*/10);
    auto session2 = engine2->OpenSession();
    const double repeat = WallTimedQuery(session2.get(), query, options);
    PrintKeyValue("autotune/off/cold", cold);
    PrintKeyValue("autotune/off/repeat", repeat);
  }

  // --- reactive: adaptive state as a query side effect --------------------
  double reactive_warm;
  {
    auto engine = D30CsvEngine(&dataset, /*stride=*/10);
    auto session = engine->OpenSession();
    const double cold = WallTimedQuery(session.get(), query, options);
    reactive_warm = WallTimedQuery(session.get(), query, options);
    reactive_warm =
        std::min(reactive_warm, WallTimedQuery(session.get(), query, options));
    PrintKeyValue("autotune/reactive/cold", cold);
    PrintKeyValue("autotune/reactive/warm", reactive_warm);
  }

  // --- background: state rebuilt by the idle worker -----------------------
  {
    auto engine = AutotuneEngine(&dataset, /*background=*/true,
                                 /*result_cache_bytes=*/0);
    auto session = engine->OpenSession();
    // Heat the table (two scans), then wipe every piece of adaptive state —
    // the heat counters survive: they are workload history, not state.
    WallTimedQuery(session.get(), query, options);
    WallTimedQuery(session.get(), query, options);
    engine->ResetAdaptiveState();
    // Go idle; the materializer rebuilds the map and the hot columns.
    AwaitBackgroundWarm(engine.get(), /*budget_ms=*/60000);
    const double first_after_idle =
        WallTimedQuery(session.get(), query, options);
    PrintKeyValue("autotune/background/first-after-idle", first_after_idle);
    printf("  (cold would be ~ autotune/off/cold; expect ~ reactive/warm "
           "%.3fs)\n",
           reactive_warm);
  }

  // --- +result-cache: repeats answered from cached results ----------------
  {
    auto engine = AutotuneEngine(&dataset, /*background=*/true,
                                 /*result_cache_bytes=*/256ll << 20);
    auto session = engine->OpenSession();
    const double miss = WallTimedQuery(session.get(), query, options);
    const double hit = WallTimedQuery(session.get(), query, options);
    const double speedup = hit > 0 ? miss / hit : 0;
    PrintKeyValue("autotune/result_cache/miss", miss);
    PrintKeyValue("autotune/result_cache/hit", hit);
    printf("%-40s %9.1fx\n", "autotune/result_cache/speedup", speedup);
    RecordJson("autotune/result_cache/speedup", speedup);
    const EngineStats stats = engine->Stats();
    printf("  (cache: hits=%lld misses=%lld inserted=%lld)\n",
           static_cast<long long>(stats.result_cache.hits),
           static_cast<long long>(stats.result_cache.misses),
           static_cast<long long>(stats.result_cache.inserted));
  }

  printf("\nExpect: first-after-idle ~= reactive/warm (the background worker\n"
         "rebuilt the adaptive state before the query arrived), and the\n"
         "result-cache hit >= 5x below its miss.\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
