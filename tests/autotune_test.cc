// The self-tuning tier under adversarial conditions: idle detection firing
// deterministically, background builds preempted by foreground work within a
// single batch, background-built positional maps bit-for-bit identical to
// query-built ones (same claim/scan/publish protocol), the semantic result
// cache hitting/invalidating on reset and on file change, and the whole
// worker surviving a ResetAdaptiveState() hammer. Runs under TSan in CI
// (label: concurrency).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/raw_engine.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"
#include "workload/table_spec.h"

namespace raw {
namespace {

using Clock = std::chrono::steady_clock;

/// Polls `pred` every millisecond until it holds or `budget_ms` elapses.
bool WaitFor(const std::function<bool()>& pred, int64_t budget_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(budget_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

class AutotuneTest : public testing::TempDirTest {
 protected:
  static constexpr int64_t kRows = 3000;

  void SetUp() override {
    testing::TempDirTest::SetUp();
    spec_ = TableSpec::UniformInt32("t", 8, kRows, /*seed=*/91);
    ASSERT_OK(WriteCsvFile(spec_, Path("t.csv")));
  }

  std::unique_ptr<RawEngine> NewEngine(RawEngineOptions options) {
    auto engine = std::make_unique<RawEngine>(options);
    EXPECT_OK(engine->RegisterCsv("t", Path("t.csv"), spec_.ToSchema(),
                                  CsvOptions(), /*pmap_stride=*/3));
    return engine;
  }

  /// COUNT(*) under a col0 predicate — the workhorse query of this suite.
  static constexpr const char* kCountSql =
      "SELECT COUNT(*) FROM t WHERE col0 < 500000000";

  int64_t Count(RawEngine* engine, const std::string& sql = kCountSql) {
    auto session = engine->OpenSession();
    auto result = session->Query(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return -1;
    auto scalar = result->Scalar();
    EXPECT_TRUE(scalar.ok()) << scalar.status().ToString();
    return scalar.ok() ? scalar->int64_value() : -1;
  }

  TableSpec spec_;
};

// A disabled engine (the default) must be completely inert: no worker, no
// counters moving, stats all zero no matter how much foreground work runs.
TEST_F(AutotuneTest, DisabledEngineIsInert) {
  auto engine = NewEngine(RawEngineOptions());
  ASSERT_NE(engine->materializer(), nullptr);
  EXPECT_FALSE(engine->materializer()->enabled());
  EXPECT_EQ(engine->result_cache(), nullptr);
  for (int i = 0; i < 3; ++i) Count(engine.get());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.materializer.passes, 0);
  EXPECT_EQ(stats.materializer.actions_started, 0);
  EXPECT_EQ(stats.result_cache.hits + stats.result_cache.misses, 0);
  // Access mining still runs (it is free) — heat is recorded even when
  // nothing consumes it yet.
  const TableStats* t = stats.table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->scans, 3);
}

// Idle detection is a deterministic predicate, not a heuristic: false while
// (or right after) queries run, true once the engine has been quiet for
// idle_wait_ms.
TEST_F(AutotuneTest, IdleTriggerDeterminism) {
  RawEngineOptions options;
  options.autotune.enabled = true;
  options.autotune.idle_wait_ms = 500;
  // Heat thresholds high enough that the worker never actually builds — this
  // test watches the predicate, not the builds.
  options.autotune.min_table_scans = 1000000;
  auto engine = NewEngine(options);

  Count(engine.get());
  // Immediately after a query the quiet period cannot have elapsed.
  EXPECT_FALSE(engine->materializer()->EngineIdle());
  // After sitting quiet for 3x the idle threshold, it must have.
  EXPECT_TRUE(WaitFor([&] { return engine->materializer()->EngineIdle(); },
                      3 * options.autotune.idle_wait_ms));
  // Any foreground activity resets the clock.
  Count(engine.get());
  EXPECT_FALSE(engine->materializer()->EngineIdle());
}

// The tentpole correctness claim: a positional map completed by the
// background worker is bit-for-bit the map a foreground query would have
// built, because both run the identical claim -> scan -> publish protocol.
TEST_F(AutotuneTest, BackgroundPmapMatchesQueryBuiltPmap) {
  // Engine A: heat up the table, wipe adaptive state (heat survives — it is
  // workload history, not adaptive state), then let the worker rebuild the
  // map with no foreground help.
  RawEngineOptions opts_a;
  opts_a.autotune.enabled = true;
  opts_a.autotune.idle_wait_ms = 50;
  opts_a.autotune.poll_ms = 5;
  auto a = NewEngine(opts_a);
  Count(a.get());
  Count(a.get());
  a->ResetAdaptiveState();
  ASSERT_TRUE(WaitFor(
      [&] {
        const EngineStats stats = a->Stats();
        const TableStats* t = stats.table("t");
        return stats.materializer.pmaps_built >= 1 && t != nullptr &&
               t->pmap_rows == kRows;
      },
      10000))
      << "background navigation build never completed";

  // Engine B: plain engine, map built as a query side effect.
  auto b = NewEngine(RawEngineOptions());
  Count(b.get());
  ASSERT_EQ(b->Stats().table("t")->pmap_rows, kRows);

  ASSERT_OK_AND_ASSIGN(auto pmap_a, a->PositionalMapSnapshot("t"));
  ASSERT_OK_AND_ASSIGN(auto pmap_b, b->PositionalMapSnapshot("t"));
  ASSERT_NE(pmap_a, nullptr);
  ASSERT_NE(pmap_b, nullptr);
  ASSERT_EQ(pmap_a->num_rows(), pmap_b->num_rows());
  ASSERT_EQ(pmap_a->num_columns(), pmap_b->num_columns());
  ASSERT_EQ(pmap_a->tracked_columns(), pmap_b->tracked_columns());
  for (int64_t row = 0; row < pmap_a->num_rows(); ++row) {
    ASSERT_EQ(pmap_a->RowStart(row), pmap_b->RowStart(row)) << "row " << row;
    for (int slot = 0; slot < pmap_a->num_tracked(); ++slot) {
      ASSERT_EQ(pmap_a->Position(row, slot), pmap_b->Position(row, slot))
          << "row " << row << " slot " << slot;
    }
  }

  // And the background-warmed engine answers queries identically.
  EXPECT_EQ(Count(a.get()), Count(b.get()));
}

// Preemption contract: the instant foreground work arrives, the in-flight
// build aborts at the next batch boundary — zero additional batches are
// pulled — and the foreground query never waits on background work.
TEST_F(AutotuneTest, PreemptionBoundedByOneBatch) {
  std::atomic<int64_t> hook_calls{0};
  std::atomic<bool> released{false};

  RawEngineOptions options;
  options.autotune.enabled = true;
  options.autotune.idle_wait_ms = 500;  // retry >= 500ms after preemption
  options.autotune.poll_ms = 5;
  options.autotune.batch_rows = 64;  // many batches over kRows rows
  options.autotune.batch_hook = [&] {
    const int64_t n = hook_calls.fetch_add(1) + 1;
    if (n != 3) return;
    // Hold the build mid-flight (two batches consumed, yield check for the
    // third not yet run) until the test releases it. Bounded so a failed
    // assertion can't deadlock engine teardown.
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (!released.load(std::memory_order_acquire) &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto engine = NewEngine(options);

  // Heat + navigation state via foreground queries, then go idle; the worker
  // starts a build (full load of this small hot table) and parks in the hook.
  const int64_t expected = Count(engine.get());
  Count(engine.get());
  ASSERT_TRUE(WaitFor([&] { return hook_calls.load() >= 3; }, 10000))
      << "background build never started";
  ASSERT_GT(engine->Stats().materializer.actions_started, 0);

  // Foreground query while the build is provably mid-flight: must succeed
  // promptly — the build thread is parked, so any dependence would hang.
  const auto t0 = Clock::now();
  EXPECT_EQ(Count(engine.get()), expected);
  const auto foreground_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count();
  // Generous bound: a plain warm query takes single-digit ms; waiting on the
  // parked build would take the full 30s hook timeout.
  EXPECT_LT(foreground_ms, 5000);

  // That query's admission set the preemption token. Release the build: its
  // very next yield check must abort it without pulling batch three.
  const int64_t calls_at_release = hook_calls.load();
  EXPECT_EQ(calls_at_release, 3);
  released.store(true, std::memory_order_release);
  ASSERT_TRUE(WaitFor(
      [&] { return engine->Stats().materializer.actions_preempted >= 1; },
      5000))
      << "build was not preempted";
  // The retry needs >= idle_wait_ms of fresh quiet, so reading immediately
  // after the preemption shows the aborted attempt's batch count untouched.
  EXPECT_EQ(hook_calls.load(), calls_at_release)
      << "build pulled batches after the preemption signal";
}

// A background build pins the file generation it started on. When the file
// is replaced while the build drains, the build must publish nothing (no
// map, no shreds, no row count of the displaced bytes) and the dropped
// publishes are counted; the next build indexes the current file.
TEST_F(AutotuneTest, BackgroundBuildDrainedAfterAReplacementPublishesNothing) {
  const TableSpec v2 = TableSpec::UniformInt32("t", 8, 1000, /*seed=*/92);
  std::atomic<int64_t> hook_calls{0};
  RawEngine* engine_ptr = nullptr;
  RawEngineOptions options;
  options.autotune.enabled = true;
  options.autotune.idle_wait_ms = 50;
  options.autotune.poll_ms = 5;
  options.autotune.batch_rows = 64;  // many batches over kRows rows
  options.autotune.batch_hook = [&] {
    if (hook_calls.fetch_add(1) + 1 != 2) return;
    // One batch drained: replace the file, and let a lookup notice it.
    const std::string next = Path("t.csv.next");
    ASSERT_OK(WriteCsvFile(v2, next));
    ASSERT_EQ(0, std::rename(next.c_str(), Path("t.csv").c_str()));
    ASSERT_OK(engine_ptr->PositionalMapSnapshot("t").status());
  };
  auto engine = NewEngine(options);
  engine_ptr = engine.get();
  // Heat the table, then drop its map: the worker's first action is the
  // navigation build.
  Count(engine.get());
  Count(engine.get());
  engine->ResetAdaptiveState();
  ASSERT_TRUE(WaitFor(
      [&] {
        const EngineStats stats = engine->Stats();
        const TableStats* t = stats.table("t");
        return t != nullptr && t->stale_publishes >= 1;
      },
      10000))
      << "the displaced build's publishes were not dropped";
  // Whatever the worker has rebuilt since describes the current file only.
  const EngineStats stats = engine->Stats();
  const TableStats* t = stats.table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->version, 1);
  EXPECT_NE(t->pmap_rows, kRows) << "displaced map published";
  EXPECT_NE(t->row_count, kRows) << "displaced row count published";
  ASSERT_TRUE(WaitFor(
      [&] {
        const EngineStats stats = engine->Stats();
        return stats.table("t")->pmap_rows == 1000;
      },
      10000))
      << "no build over the current file";

  auto fresh = std::make_unique<RawEngine>();
  ASSERT_OK(fresh->RegisterCsv("t", Path("t.csv"), v2.ToSchema()));
  EXPECT_EQ(Count(engine.get()), Count(fresh.get()));
}

// Result cache: second identical query is a hit (no plan, no execution),
// ResetAdaptiveState() invalidates, and the post-reset query recomputes.
TEST_F(AutotuneTest, ResultCacheHitAndResetInvalidation) {
  RawEngineOptions options;
  options.result_cache_bytes = 8ll << 20;
  auto engine = NewEngine(options);
  auto session = engine->OpenSession();
  ASSERT_NE(engine->result_cache(), nullptr);

  ASSERT_OK_AND_ASSIGN(QueryResult cold, session->Query(kCountSql));
  ASSERT_OK_AND_ASSIGN(Datum cold_count, cold.Scalar());
  {
    const EngineStats stats = engine->Stats();
    EXPECT_EQ(stats.result_cache.misses, 1);
    EXPECT_EQ(stats.result_cache.inserted, 1);
    EXPECT_EQ(stats.result_cache.hits, 0);
  }

  ASSERT_OK_AND_ASSIGN(QueryResult warm, session->Query(kCountSql));
  ASSERT_OK_AND_ASSIGN(Datum warm_count, warm.Scalar());
  EXPECT_EQ(cold_count, warm_count);
  EXPECT_NE(warm.plan_description.find("[result-cache hit]"),
            std::string::npos)
      << warm.plan_description;
  EXPECT_EQ(warm.plan_seconds, 0);
  EXPECT_EQ(warm.execute_seconds, 0);
  {
    const EngineStats stats = engine->Stats();
    EXPECT_EQ(stats.result_cache.hits, 1);
    // The hit skipped planning and execution entirely.
    EXPECT_EQ(stats.queries_executed, 1);
    EXPECT_EQ(stats.queries_planned, 1);
  }

  // A different query is its own entry, not a collision.
  Count(engine.get(), "SELECT COUNT(*) FROM t WHERE col0 < 100000000");
  EXPECT_EQ(engine->Stats().result_cache.entries, 2);

  engine->ResetAdaptiveState();
  {
    const EngineStats stats = engine->Stats();
    EXPECT_EQ(stats.result_cache.entries, 0);
    EXPECT_EQ(stats.result_cache.invalidated, 2);
  }
  ASSERT_OK_AND_ASSIGN(QueryResult recomputed, session->Query(kCountSql));
  ASSERT_OK_AND_ASSIGN(Datum recount, recomputed.Scalar());
  EXPECT_EQ(recount, cold_count);
  EXPECT_EQ(recomputed.plan_description.find("[result-cache hit]"),
            std::string::npos);
}

// Rewriting the underlying file must invalidate both the cached results and
// the table's adaptive state: the next query sees the new bytes, never a
// stale answer.
TEST_F(AutotuneTest, ResultCacheInvalidatedOnFileChange) {
  RawEngineOptions options;
  options.result_cache_bytes = 8ll << 20;
  auto engine = NewEngine(options);

  const std::string sql = "SELECT COUNT(*) FROM t";
  EXPECT_EQ(Count(engine.get(), sql), kRows);
  EXPECT_EQ(Count(engine.get(), sql), kRows);  // served from cache
  EXPECT_EQ(engine->Stats().result_cache.hits, 1);
  const int64_t version_before = engine->Stats().table("t")->version;

  // Replace the file with one of a different row count (size change makes
  // staleness detection robust to coarse mtime granularity).
  TableSpec bigger = TableSpec::UniformInt32("t", 8, kRows + 500, /*seed=*/7);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_OK(WriteCsvFile(bigger, Path("t.csv")));

  EXPECT_EQ(Count(engine.get(), sql), kRows + 500);
  const EngineStats stats = engine->Stats();
  EXPECT_GE(stats.result_cache.invalidated, 1);
  EXPECT_GT(stats.table("t")->version, version_before);
  // And the fresh answer caches under the new version.
  EXPECT_EQ(Count(engine.get(), sql), kRows + 500);
}

// Parameterized-query regression: re-executing a PreparedQuery with the same
// bound values must hit the result cache (BindParams folds the values into
// the predicate literals, so they are part of the fingerprint), while a
// different binding is its own entry — never a collision.
TEST_F(AutotuneTest, PreparedQueryReexecutionHitsResultCache) {
  RawEngineOptions options;
  options.result_cache_bytes = 8ll << 20;
  auto engine = NewEngine(options);
  auto session = engine->OpenSession();
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      session->Prepare("SELECT COUNT(*) FROM t WHERE col0 < ?"));

  ASSERT_OK_AND_ASSIGN(QueryResult cold,
                       prepared.Execute({Datum::Int64(500000000)}));
  ASSERT_OK_AND_ASSIGN(QueryResult warm,
                       prepared.Execute({Datum::Int64(500000000)}));
  EXPECT_NE(warm.plan_description.find("[result-cache hit]"),
            std::string::npos)
      << warm.plan_description;
  ASSERT_OK_AND_ASSIGN(Datum cold_count, cold.Scalar());
  ASSERT_OK_AND_ASSIGN(Datum warm_count, warm.Scalar());
  EXPECT_EQ(cold_count, warm_count);
  EXPECT_EQ(engine->Stats().result_cache.hits, 1);

  // A different bound value fingerprints differently: miss, new entry.
  ASSERT_OK_AND_ASSIGN(QueryResult other,
                       prepared.Execute({Datum::Int64(100000000)}));
  EXPECT_EQ(other.plan_description.find("[result-cache hit]"),
            std::string::npos);
  ASSERT_OK_AND_ASSIGN(Datum other_count, other.Scalar());
  EXPECT_NE(cold_count, other_count);
  EXPECT_EQ(engine->Stats().result_cache.entries, 2);
  // Re-executing never re-parses; the whole loop above parsed exactly once.
  EXPECT_EQ(engine->Stats().queries_parsed, 1);
}

// The worker must survive an adversary resetting adaptive state under it
// while foreground sessions keep querying: no crashes, no torn state, every
// answer correct. TSan covers the data-race half of the claim.
TEST_F(AutotuneTest, ResetHammerWhileWorkerRuns) {
  RawEngineOptions options;
  options.autotune.enabled = true;
  options.autotune.idle_wait_ms = 1;
  options.autotune.poll_ms = 1;
  options.autotune.min_table_scans = 1;
  options.autotune.min_column_accesses = 1;
  options.result_cache_bytes = 8ll << 20;
  auto engine = NewEngine(options);

  const int64_t expected = Count(engine.get());
  ASSERT_GE(expected, 0);

  std::atomic<bool> done{false};
  std::atomic<int> bad_answers{0};
  std::thread hammer([&] {
    for (int i = 0; i < 200; ++i) {
      engine->ResetAdaptiveState();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> queriers;
  for (int q = 0; q < 2; ++q) {
    queriers.emplace_back([&] {
      auto session = engine->OpenSession();
      while (!done.load(std::memory_order_acquire)) {
        auto result = session->Query(kCountSql);
        if (!result.ok()) {
          bad_answers.fetch_add(1);
          continue;
        }
        auto scalar = result->Scalar();
        if (!scalar.ok() || scalar->int64_value() != expected) {
          bad_answers.fetch_add(1);
        }
      }
    });
  }
  hammer.join();
  for (std::thread& t : queriers) t.join();
  EXPECT_EQ(bad_answers.load(), 0);
  // The engine is still fully functional afterwards.
  EXPECT_EQ(Count(engine.get()), expected);
}

}  // namespace
}  // namespace raw
