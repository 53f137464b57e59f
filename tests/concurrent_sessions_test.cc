// The headline proof of the session-oriented API: one shared RawEngine
// serving many concurrent sessions — mixed cold/warm CSV, binary and JIT
// queries — with every per-query result identical to serial execution, warm
// cache hits shared across sessions, ResetAdaptiveState() safe against
// in-flight sessions, and prepared statements skipping re-parse/re-bind.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

class ConcurrentSessionsTest : public testing::TempDirTest {
 protected:
  static constexpr int kNumSessions = 4;
  static constexpr int64_t kRows = 3000;

  void SetUp() override {
    testing::TempDirTest::SetUp();
    spec_ = TableSpec::UniformInt32("t", 12, kRows, /*seed=*/77);
    spec_.columns[7].type = DataType::kFloat64;
    spec_.columns[11].max_value = 16;  // group-by friendly cardinality
    ASSERT_OK(WriteCsvFile(spec_, Path("t.csv")));
    ASSERT_OK(WriteBinaryFile(spec_, Path("t.bin")));
  }

  std::unique_ptr<RawEngine> NewEngine() {
    auto engine = std::make_unique<RawEngine>();
    EXPECT_OK(engine->RegisterCsv("t_csv", Path("t.csv"), spec_.ToSchema(),
                                  CsvOptions(), /*pmap_stride=*/4));
    EXPECT_OK(engine->RegisterBinary("t_bin", Path("t.bin"), spec_.ToSchema()));
    return engine;
  }

  /// The per-session workload: distinct queries per session id, spanning
  /// CSV + binary tables, selections, multi-aggregates and a group-by.
  std::vector<std::string> SessionQueries(int session) const {
    int agg = session % 6;           // col0..col5
    int64_t lit = 150000000ll * (session + 2);
    std::vector<std::string> queries;
    queries.push_back("SELECT MAX(col" + std::to_string(agg) +
                      ") FROM t_csv WHERE col1 < " + std::to_string(lit));
    queries.push_back("SELECT COUNT(*) FROM t_bin WHERE col2 < " +
                      std::to_string(lit));
    queries.push_back("SELECT MIN(col" + std::to_string(agg + 2) +
                      "), MAX(col7) FROM t_csv WHERE col3 < " +
                      std::to_string(lit));
    queries.push_back("SELECT col11, COUNT(*) FROM t_csv WHERE col0 < " +
                      std::to_string(lit) + " GROUP BY col11");
    return queries;
  }

  /// Serial ground truth: a fresh engine runs every query twice (cold, then
  /// warm) on one thread; keyed by query text.
  std::map<std::string, std::string> SerialResults(
      const PlannerOptions& options) {
    auto engine = NewEngine();
    auto session = engine->OpenSession(options);
    std::map<std::string, std::string> results;
    for (int s = 0; s < kNumSessions; ++s) {
      for (const std::string& sql : SessionQueries(s)) {
        for (int round = 0; round < 2; ++round) {
          auto result = session->Query(sql);
          EXPECT_TRUE(result.ok()) << sql << ": "
                                   << result.status().ToString();
          if (!result.ok()) continue;
          std::string table = result->table.ToString(10000);
          auto [it, inserted] = results.emplace(sql, table);
          EXPECT_EQ(it->second, table) << "cold/warm mismatch for " << sql;
        }
      }
    }
    return results;
  }

  /// Runs the whole workload concurrently against one shared engine (every
  /// session on its own thread, cold + warm rounds) and checks each result
  /// against the serial reference.
  void RunConcurrent(RawEngine* engine, const PlannerOptions& options,
                     const std::map<std::string, std::string>& expected) {
    struct Outcome {
      std::string sql;
      std::string error;   // empty = ok
      std::string table;
    };
    std::vector<std::vector<Outcome>> outcomes(kNumSessions);
    std::vector<std::thread> threads;
    for (int s = 0; s < kNumSessions; ++s) {
      threads.emplace_back([&, s] {
        auto session = engine->OpenSession(options);
        for (int round = 0; round < 2; ++round) {
          for (const std::string& sql : SessionQueries(s)) {
            Outcome outcome;
            outcome.sql = sql;
            auto result = session->Query(sql);
            if (!result.ok()) {
              outcome.error = result.status().ToString();
            } else {
              outcome.table = result->table.ToString(10000);
            }
            outcomes[static_cast<size_t>(s)].push_back(std::move(outcome));
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& session_outcomes : outcomes) {
      for (const Outcome& outcome : session_outcomes) {
        ASSERT_EQ(outcome.error, "") << outcome.sql;
        auto it = expected.find(outcome.sql);
        ASSERT_NE(it, expected.end()) << outcome.sql;
        EXPECT_EQ(outcome.table, it->second)
            << "concurrent result diverged from serial for " << outcome.sql;
      }
    }
  }

  TableSpec spec_;
};

TEST_F(ConcurrentSessionsTest, InSituSessionsMatchSerial) {
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  std::map<std::string, std::string> expected = SerialResults(options);
  auto engine = NewEngine();
  RunConcurrent(engine.get(), options, expected);
  // Warm adaptive state is shared: the map is published once and the shred
  // pool took hits from the warm rounds across sessions.
  EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.table("t_csv")->pmap_rows, kRows);
  EXPECT_GT(stats.shred_cache.hits, 0);
  EXPECT_GE(stats.sessions_opened, kNumSessions);
}

TEST_F(ConcurrentSessionsTest, JitSessionsMatchSerial) {
  {
    RawEngine probe;
    if (!probe.Stats().jit_compiler_available()) {
      GTEST_SKIP() << "no external compiler";
    }
  }
  PlannerOptions options;
  options.access_path = AccessPathKind::kJit;
  options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
  std::map<std::string, std::string> expected = SerialResults(options);
  auto engine = NewEngine();
  RunConcurrent(engine.get(), options, expected);
  // Concurrent sessions shared one template cache: distinct access paths
  // compiled once each, repeats were hits.
  EngineStats stats = engine->Stats();
  EXPECT_GT(stats.jit_cache.hits, 0);
}

TEST_F(ConcurrentSessionsTest, ResetAdaptiveStateDuringInflightSessions) {
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  std::map<std::string, std::string> expected = SerialResults(options);
  auto engine = NewEngine();

  std::vector<std::vector<std::string>> errors(kNumSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kNumSessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = engine->OpenSession(options);
      std::vector<std::string> queries = SessionQueries(s);
      for (int round = 0; round < 6; ++round) {
        for (const std::string& sql : queries) {
          auto result = session->Query(sql);
          if (!result.ok()) {
            errors[static_cast<size_t>(s)].push_back(
                sql + ": " + result.status().ToString());
            continue;
          }
          std::string table = result->table.ToString(10000);
          if (table != expected.at(sql)) {
            errors[static_cast<size_t>(s)].push_back("result diverged: " +
                                                     sql);
          }
        }
      }
    });
  }
  // Keep yanking the adaptive state away while queries are in flight:
  // running plans hold immutable snapshots, so nothing breaks.
  for (int i = 0; i < 20; ++i) {
    engine->ResetAdaptiveState();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : threads) t.join();
  for (const auto& session_errors : errors) {
    EXPECT_EQ(session_errors, std::vector<std::string>());
  }
  // The engine still works and rebuilds its adaptive state afterwards.
  auto session = engine->OpenSession(options);
  ASSERT_OK(session->Query("SELECT COUNT(*) FROM t_csv WHERE col0 >= 0")
                .status());
}

// REF was the last access path barred from concurrent sessions (the old
// buffer pool mutated LRU state un-locked). With the sharded, pinning pool
// any number of sessions may hammer the same REF file — cold and warm, event
// and particle tables — and every result must match serial execution.
class ConcurrentRefSessionsTest : public ConcurrentSessionsTest {
 protected:
  void SetUp() override {
    ConcurrentSessionsTest::SetUp();
    EventGenOptions options;
    options.num_events = 2000;
    ASSERT_OK(WriteRefFile(Path("e.ref"), options, /*cluster_events=*/128));
  }

  std::unique_ptr<RawEngine> NewRefEngine() {
    auto engine = std::make_unique<RawEngine>();
    EXPECT_OK(engine->RegisterRef("a", Path("e.ref")));
    return engine;
  }

  /// Distinct per-session REF workload: event + particle tables, filters,
  /// aggregates, group-by, and the derived-eventID path.
  std::vector<std::string> RefSessionQueries(int session) const {
    double pt_cut = 4.0 + 2.0 * session;
    std::vector<std::string> queries;
    queries.push_back("SELECT COUNT(*) FROM a_events WHERE runNumber > " +
                      std::to_string(2005 + session));
    queries.push_back("SELECT MAX(pt), MIN(eta) FROM a_muons WHERE pt > " +
                      std::to_string(pt_cut));
    queries.push_back("SELECT COUNT(*) FROM a_jets WHERE eta < " +
                      std::to_string(1.0 + session));
    queries.push_back("SELECT MAX(eventID) FROM a_electrons WHERE pt > " +
                      std::to_string(pt_cut));
    queries.push_back("SELECT runNumber, COUNT(*) FROM a_events GROUP BY "
                      "runNumber");
    return queries;
  }

  std::map<std::string, std::string> RefSerialResults(
      const PlannerOptions& options) {
    auto engine = NewRefEngine();
    auto session = engine->OpenSession(options);
    std::map<std::string, std::string> results;
    for (int s = 0; s < kNumSessions; ++s) {
      for (const std::string& sql : RefSessionQueries(s)) {
        for (int round = 0; round < 2; ++round) {
          auto result = session->Query(sql);
          EXPECT_TRUE(result.ok()) << sql << ": "
                                   << result.status().ToString();
          if (!result.ok()) continue;
          std::string table = result->table.ToString(10000);
          auto [it, inserted] = results.emplace(sql, table);
          EXPECT_EQ(it->second, table) << "cold/warm mismatch for " << sql;
        }
      }
    }
    return results;
  }
};

TEST_F(ConcurrentRefSessionsTest, RefSessionsMatchSerial) {
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  std::map<std::string, std::string> expected = RefSerialResults(options);
  auto engine = NewRefEngine();

  std::vector<std::vector<std::string>> errors(kNumSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kNumSessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = engine->OpenSession(options);
      for (int round = 0; round < 2; ++round) {
        for (const std::string& sql : RefSessionQueries(s)) {
          auto result = session->Query(sql);
          if (!result.ok()) {
            errors[static_cast<size_t>(s)].push_back(
                sql + ": " + result.status().ToString());
            continue;
          }
          std::string table = result->table.ToString(10000);
          if (table != expected.at(sql)) {
            errors[static_cast<size_t>(s)].push_back("result diverged: " +
                                                     sql);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& session_errors : errors) {
    EXPECT_EQ(session_errors, std::vector<std::string>());
  }
  // The sessions shared one cluster pool: the warm rounds took hits.
  EngineStats stats = engine->Stats();
  EXPECT_GT(stats.ref_pool.hits, 0);
  EXPECT_GT(stats.ref_pool.bytes, 0);
}

TEST_F(ConcurrentRefSessionsTest, ResetAdaptiveStateDuringInflightRefSessions) {
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  std::map<std::string, std::string> expected = RefSerialResults(options);
  auto engine = NewRefEngine();

  std::vector<std::vector<std::string>> errors(kNumSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kNumSessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = engine->OpenSession(options);
      std::vector<std::string> queries = RefSessionQueries(s);
      for (int round = 0; round < 4; ++round) {
        for (const std::string& sql : queries) {
          auto result = session->Query(sql);
          if (!result.ok()) {
            errors[static_cast<size_t>(s)].push_back(
                sql + ": " + result.status().ToString());
            continue;
          }
          std::string table = result->table.ToString(10000);
          if (table != expected.at(sql)) {
            errors[static_cast<size_t>(s)].push_back("result diverged: " +
                                                     sql);
          }
        }
      }
    });
  }
  // Keep dropping the cluster cache (and every other adaptive cache) while
  // REF queries are mid-read: pinned cluster handles keep in-flight reads
  // valid, and re-decodes repopulate the pool.
  for (int i = 0; i < 20; ++i) {
    engine->ResetAdaptiveState();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : threads) t.join();
  for (const auto& session_errors : errors) {
    EXPECT_EQ(session_errors, std::vector<std::string>());
  }
  auto session = engine->OpenSession(options);
  ASSERT_OK(
      session->Query("SELECT COUNT(*) FROM a_events WHERE runNumber > 0")
          .status());
}

TEST_F(ConcurrentSessionsTest, PreparedQuerySkipsReparseAndRebind) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  session->set_planner_options(options);

  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      session->Prepare("SELECT COUNT(*) FROM t_csv WHERE col1 < ?"));
  EXPECT_EQ(prepared.num_params(), 1);

  const int64_t parsed_before = engine->Stats().queries_parsed;
  const int64_t planned_before = engine->Stats().queries_planned;
  std::vector<int64_t> literals = {100000000, 400000000, 800000000};
  for (int64_t lit : literals) {
    // Reference via a one-shot SQL round trip (parses again each time).
    ASSERT_OK_AND_ASSIGN(
        QueryResult direct,
        session->Query("SELECT COUNT(*) FROM t_csv WHERE col1 < " +
                       std::to_string(lit)));
    ASSERT_OK_AND_ASSIGN(QueryResult via_param,
                         prepared.Execute({Datum::Int64(lit)}));
    ASSERT_OK_AND_ASSIGN(Datum a, direct.Scalar());
    ASSERT_OK_AND_ASSIGN(Datum b, via_param.Scalar());
    EXPECT_EQ(a, b) << lit;
  }
  EngineStats stats = engine->Stats();
  // The three prepared executions did not re-parse/re-bind (only the three
  // one-shot reference queries did), but every execution still planned.
  EXPECT_EQ(stats.queries_parsed,
            parsed_before + static_cast<int64_t>(literals.size()));
  EXPECT_EQ(stats.queries_planned,
            planned_before + 2 * static_cast<int64_t>(literals.size()));

  // Parameter count and type errors surface cleanly.
  EXPECT_FALSE(prepared.Execute({}).ok());
  EXPECT_FALSE(
      prepared.Execute({Datum::String("nope"), Datum::Int64(1)}).ok());
}

TEST_F(ConcurrentSessionsTest, StreamingCursorMatchesMaterialized) {
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.batch_rows = 256;  // force several batches
  const std::string sql =
      "SELECT col0, col7 FROM t_csv WHERE col1 < 700000000";

  // Materialized reference on its own engine.
  auto reference_engine = NewEngine();
  ASSERT_OK_AND_ASSIGN(QueryResult materialized,
                       reference_engine->OpenSession(options)->Query(sql));

  // Cold stream on a fresh engine: batches arrive incrementally.
  auto engine = NewEngine();
  auto session = engine->OpenSession(options);
  ASSERT_OK_AND_ASSIGN(Cursor cursor, session->Stream(sql));
  EXPECT_EQ(cursor.schema().num_fields(), 2);
  int64_t streamed_rows = 0;
  int batches = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(ColumnBatch batch, cursor.Next());
    if (batch.empty()) break;
    streamed_rows += batch.num_rows();
    ++batches;
  }
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(streamed_rows, materialized.num_rows());
  EXPECT_GT(batches, 1) << "expected incremental delivery";

  // Consume() materializes a whole stream (warm this time) and must equal
  // the one-shot result exactly.
  ASSERT_OK_AND_ASSIGN(Cursor full, session->Stream(sql));
  ASSERT_OK_AND_ASSIGN(QueryResult consumed, full.Consume());
  EXPECT_EQ(consumed.table.ToString(10000),
            materialized.table.ToString(10000));
}

TEST_F(ConcurrentSessionsTest, AbandonedCursorReleasesPmapBuildClaim) {
  auto engine = NewEngine();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.batch_rows = 128;
  auto session = engine->OpenSession(options);

  {
    // Pull one batch of a cold scan, then drop the cursor mid-stream: the
    // half-built positional map must be discarded, not published.
    ASSERT_OK_AND_ASSIGN(
        Cursor cursor,
        session->Stream("SELECT col0 FROM t_csv WHERE col0 >= 0"));
    ASSERT_OK_AND_ASSIGN(ColumnBatch first, cursor.Next());
    EXPECT_GT(first.num_rows(), 0);
  }
  EXPECT_EQ(engine->Stats().table("t_csv")->pmap_rows, 0);

  // The claim was released, so the next full query builds + publishes.
  ASSERT_OK(
      session->Query("SELECT COUNT(*) FROM t_csv WHERE col0 >= 0").status());
  EXPECT_EQ(engine->Stats().table("t_csv")->pmap_rows, kRows);
}

TEST_F(ConcurrentSessionsTest, CursorStreamsAcrossReset) {
  auto engine = NewEngine();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.batch_rows = 128;
  auto session = engine->OpenSession(options);
  const std::string sql = "SELECT col0, col5 FROM t_csv WHERE col1 < 900000000";

  // Warm up so the streaming plan below runs off published adaptive state.
  ASSERT_OK_AND_ASSIGN(QueryResult reference, session->Query(sql));

  ASSERT_OK_AND_ASSIGN(Cursor cursor, session->Stream(sql));
  ASSERT_OK_AND_ASSIGN(ColumnBatch first, cursor.Next());
  EXPECT_GT(first.num_rows(), 0);
  // Reset mid-stream: the cursor holds snapshots of everything its plan
  // references and keeps streaming the correct rows.
  engine->ResetAdaptiveState();
  int64_t rows = first.num_rows();
  while (true) {
    ASSERT_OK_AND_ASSIGN(ColumnBatch batch, cursor.Next());
    if (batch.empty()) break;
    rows += batch.num_rows();
  }
  EXPECT_EQ(rows, reference.num_rows());
}

}  // namespace
}  // namespace raw
