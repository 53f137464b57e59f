// Planner- and executor-level behaviours: plan shape (EXPLAIN descriptions),
// cache side effects, adaptive state reset, error paths, and REF JIT plans.

#include <gtest/gtest.h>

#include "csv/csv_writer.h"
#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

class PlannerTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    spec_ = TableSpec::UniformInt32("t", 8, 1500, 9);
    ASSERT_OK(WriteCsvFile(spec_, Path("t.csv")));
    ASSERT_OK(WriteBinaryFile(spec_, Path("t.bin")));
  }

  std::unique_ptr<RawEngine> NewEngine(int stride = 3) {
    auto engine = std::make_unique<RawEngine>();
    EXPECT_OK(engine->RegisterCsv("t", Path("t.csv"), spec_.ToSchema(),
                                  CsvOptions(), stride));
    EXPECT_OK(engine->RegisterBinary("tb", Path("t.bin"), spec_.ToSchema()));
    return engine;
  }

  TableSpec spec_;
};

TEST_F(PlannerTest, FirstQueryPlanIsSequentialScan) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col2) FROM t WHERE col0 < 500000000",
                     options));
  EXPECT_NE(result.plan_description.find("[seq-scan t]"), std::string::npos)
      << result.plan_description;
  EXPECT_NE(result.plan_description.find("[filter"), std::string::npos);
  EXPECT_NE(result.plan_description.find("[aggregate]"), std::string::npos);
}

TEST_F(PlannerTest, SecondQueryPlanUsesMapAndCache) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.shred_policy = ShredPolicy::kShreds;
  ASSERT_OK(session->Query("SELECT MAX(col0) FROM t WHERE col0 < 999999999",
                           options)
                .status());
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col5) FROM t WHERE col0 < 100000000",
                     options));
  // Predicate column served from the shred cache, col5 fetched late.
  EXPECT_NE(result.plan_description.find("[cache-scan t]"), std::string::npos)
      << result.plan_description;
  EXPECT_NE(result.plan_description.find("[late-scan t:5,]"),
            std::string::npos)
      << result.plan_description;
}

TEST_F(PlannerTest, FullColumnsPlanHasNoLateScan) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.shred_policy = ShredPolicy::kFullColumns;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col5) FROM t WHERE col0 < 100000000",
                     options));
  EXPECT_EQ(result.plan_description.find("[late-scan"), std::string::npos)
      << result.plan_description;
}

TEST_F(PlannerTest, MultiColumnShredsFetchTogether) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.shred_policy = ShredPolicy::kMultiColumnShreds;
  ASSERT_OK(session->Query("SELECT MAX(col0) FROM t WHERE col0 < 999999999",
                           options)
                .status());
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col5) FROM t WHERE col0 < 500000000 AND "
                     "col4 < 500000000",
                     options));
  // col4 (second predicate) and col5 (aggregate input) in one late scan.
  EXPECT_NE(result.plan_description.find("[late-scan t:4,5,]"),
            std::string::npos)
      << result.plan_description;
}

TEST_F(PlannerTest, ShredsFetchSeparately) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.shred_policy = ShredPolicy::kShreds;
  ASSERT_OK(session->Query("SELECT MAX(col0) FROM t WHERE col0 < 999999999",
                           options)
                .status());
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col5) FROM t WHERE col0 < 500000000 AND "
                     "col4 < 500000000",
                     options));
  EXPECT_NE(result.plan_description.find("[late-scan t:4,]"),
            std::string::npos)
      << result.plan_description;
  EXPECT_NE(result.plan_description.find("[late-scan t:5,]"),
            std::string::npos)
      << result.plan_description;
}

TEST_F(PlannerTest, RowCountDiscoveredOnFullScan) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  ASSERT_OK(session->Query("SELECT COUNT(*) FROM t WHERE col0 >= 0", options)
                .status());
  EXPECT_EQ(engine->Stats().table("t")->row_count, spec_.rows);
}

TEST_F(PlannerTest, CachePopulationCanBeDisabled) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.populate_shred_cache = false;
  options.build_positional_map = false;
  ASSERT_OK(session->Query("SELECT MAX(col0) FROM t WHERE col0 < 999999999",
                           options)
                .status());
  EXPECT_EQ(engine->Stats().shred_cache.entries, 0);
  EXPECT_EQ(engine->Stats().table("t")->pmap_rows, 0);
}

TEST_F(PlannerTest, ResetAdaptiveStateForgetsEverything) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  ASSERT_OK(session->Query("SELECT MAX(col0) FROM t WHERE col0 < 999999999",
                           options)
                .status());
  EXPECT_GT(engine->Stats().shred_cache.entries, 0);
  EXPECT_GT(engine->Stats().table("t")->pmap_rows, 0);
  engine->ResetAdaptiveState();
  EXPECT_EQ(engine->Stats().shred_cache.entries, 0);
  EXPECT_EQ(engine->Stats().table("t")->pmap_rows, 0);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PositionalMap> pmap,
                       engine->PositionalMapSnapshot("t"));
  EXPECT_EQ(pmap, nullptr);
  // Still queryable afterwards.
  ASSERT_OK(session->Query("SELECT COUNT(*) FROM t WHERE col0 >= 0", options)
                .status());
}

TEST_F(PlannerTest, ErrorsSurfaceCleanly) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  // Unknown column.
  EXPECT_FALSE(session->Query("SELECT MAX(nope) FROM t").ok());
  // Unknown table.
  EXPECT_FALSE(session->Query("SELECT COUNT(*) FROM nope").ok());
  // String literal against numeric column.
  EXPECT_FALSE(session->Query("SELECT COUNT(*) FROM t WHERE col0 < 'x'").ok());
  // Aggregate over a join of a table with itself (ambiguous column).
  EXPECT_FALSE(
      session->Query("SELECT MAX(col1) FROM t JOIN tb ON col0 = col0").ok());
}

TEST_F(PlannerTest, CountOverEmptyResult) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT COUNT(*) FROM t WHERE col0 < -1"));
  ASSERT_OK_AND_ASSIGN(Datum count, result.Scalar());
  EXPECT_EQ(count.int64_value(), 0);
}

TEST_F(PlannerTest, QueryResultAccessors) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       session->Query("SELECT col0, col1 FROM t LIMIT 4"));
  EXPECT_EQ(result.num_rows(), 4);
  EXPECT_EQ(result.num_columns(), 2);
  EXPECT_TRUE(result.ValueAt(0, 0).ok());
  EXPECT_FALSE(result.ValueAt(4, 0).ok());
  EXPECT_FALSE(result.ValueAt(0, 2).ok());
  EXPECT_FALSE(result.Scalar().ok());  // not 1x1
  EXPECT_GE(result.total_seconds(), 0);
}

TEST_F(PlannerTest, BatchRowsOptionRespected) {
  for (int64_t batch_rows : {1, 7, 100, 100000}) {
    auto engine = NewEngine();
    auto session = engine->OpenSession();
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.batch_rows = batch_rows;
    ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        session->Query("SELECT COUNT(*) FROM t WHERE col0 >= 0", options));
    ASSERT_OK_AND_ASSIGN(Datum count, result.Scalar());
    EXPECT_EQ(count.int64_value(), spec_.rows) << batch_rows;
  }
}

TEST_F(PlannerTest, StringColumnsFallBackFromJit) {
  // A CSV with a string column: the JIT path must route string-bearing scans
  // through the interpreted access path and still answer correctly.
  Schema schema{{"id", DataType::kInt32},
                {"name", DataType::kString},
                {"score", DataType::kFloat64}};
  {
    CsvWriter writer(Path("s.csv"));
    ASSERT_OK(writer.Open());
    const char* names[] = {"ada", "grace", "edsger", "barbara"};
    for (int i = 0; i < 40; ++i) {
      writer.AppendInt32(i);
      writer.AppendString(names[i % 4]);
      writer.AppendFloat64(i * 0.5);
      writer.EndRow();
    }
    ASSERT_OK(writer.Close());
  }
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("s", Path("s.csv"), schema));
  if (!engine.Stats().jit_compiler_available()) GTEST_SKIP();
  PlannerOptions options;
  options.access_path = AccessPathKind::kJit;
  options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT name, score FROM s WHERE id < 2", options));
  ASSERT_EQ(result.num_rows(), 2);
  ASSERT_OK_AND_ASSIGN(Datum name0, result.ValueAt(0, 0));
  EXPECT_EQ(name0.string_value(), "ada");
  ASSERT_OK_AND_ASSIGN(Datum name1, result.ValueAt(1, 0));
  EXPECT_EQ(name1.string_value(), "grace");
  // Equality predicate on the string column.
  ASSERT_OK_AND_ASSIGN(
      QueryResult grace,
      session->Query("SELECT COUNT(*) FROM s WHERE name = 'grace'", options));
  ASSERT_OK_AND_ASSIGN(Datum count, grace.Scalar());
  EXPECT_EQ(count.int64_value(), 10);
}

// --- REF JIT plan ----------------------------------------------------------------

class RefPlannerTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    EventGenOptions options;
    options.num_events = 250;
    ASSERT_OK(WriteRefFile(Path("e.ref"), options, 50));
  }
};

TEST_F(RefPlannerTest, JitAndInsituAgreeOnRefTables) {
  RawEngine engine;
  ASSERT_OK(engine.RegisterRef("a", Path("e.ref")));
  if (!engine.Stats().jit_compiler_available()) {
    GTEST_SKIP() << "no compiler";
  }
  for (const char* sql :
       {"SELECT COUNT(*) FROM a_events WHERE runNumber > 2010",
        "SELECT MAX(pt) FROM a_muons WHERE eta < 1.0",
        "SELECT COUNT(*) FROM a_jets WHERE pt > 40.0"}) {
    PlannerOptions jit;
    jit.access_path = AccessPathKind::kJit;
    jit.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
    PlannerOptions insitu;
    insitu.access_path = AccessPathKind::kInSitu;
    RawEngine engine_jit;
    auto jit_session = engine_jit.OpenSession();
    ASSERT_OK(engine_jit.RegisterRef("a", Path("e.ref")));
    RawEngine engine_insitu;
    auto insitu_session = engine_insitu.OpenSession();
    ASSERT_OK(engine_insitu.RegisterRef("a", Path("e.ref")));
    ASSERT_OK_AND_ASSIGN(QueryResult rj, jit_session->Query(sql, jit));
    ASSERT_OK_AND_ASSIGN(QueryResult ri, insitu_session->Query(sql, insitu));
    ASSERT_OK_AND_ASSIGN(Datum vj, rj.Scalar());
    ASSERT_OK_AND_ASSIGN(Datum vi, ri.Scalar());
    EXPECT_EQ(vj, vi) << sql;
  }
}

}  // namespace
}  // namespace raw
