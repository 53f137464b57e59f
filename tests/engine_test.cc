#include <gtest/gtest.h>

#include <functional>

#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

/// Computes the expected MAX(agg_col) over rows with col(pred_col) < lit via
/// the deterministic data source (ground truth independent of the engine).
Datum ExpectedMax(const TableSpec& spec, int agg_col, int pred_col,
                  int64_t lit) {
  TableDataSource source(spec);
  int64_t best = INT64_MIN;
  double bestf = -1e300;
  bool is_float = spec.columns[static_cast<size_t>(agg_col)].type ==
                      DataType::kFloat64 ||
                  spec.columns[static_cast<size_t>(agg_col)].type ==
                      DataType::kFloat32;
  for (int64_t r = 0; r < spec.rows; ++r) {
    Datum p = source.Value(r, pred_col);
    if (*p.AsInt64() >= lit) continue;
    Datum v = source.Value(r, agg_col);
    if (is_float) {
      bestf = std::max(bestf, *v.AsDouble());
    } else {
      best = std::max(best, *v.AsInt64());
    }
  }
  if (is_float) return Datum::Float64(bestf);
  return Datum::Int64(best);
}

class EngineTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    spec_ = TableSpec::UniformInt32("t", 12, 2000, /*seed=*/21);
    spec_.columns[7].type = DataType::kFloat64;
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

  TableSpec spec_;
};

TEST_F(EngineTest, NewEngineHasNoSession) {
  RawEngine engine;
  EXPECT_EQ(engine.Stats().sessions_opened, 0);
  EXPECT_EQ(engine.Stats().sessions_active(), 0);
  {
    auto session = engine.OpenSession();
    EXPECT_EQ(engine.Stats().sessions_active(), 1);
  }
  EXPECT_EQ(engine.Stats().sessions_active(), 0);
}

TEST_F(EngineTest, CatalogBasics) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  EXPECT_NE(engine->Stats().table("t_csv"), nullptr);
  EXPECT_EQ(engine->Stats().table("nope"), nullptr);
  EXPECT_FALSE(engine->RegisterCsv("t_csv", Path("t.csv"), spec_.ToSchema())
                   .ok());  // duplicate
  EXPECT_EQ(engine->Stats().tables.size(), 2u);
  EXPECT_FALSE(session->Query("SELECT COUNT(*) FROM missing").ok());
}

// Each query goes through the catalog once per table: exactly one
// file-signature check per table per query, whatever its shape, with the
// result cache off (the library default) and on (rawd's default) — and none
// to parse or prepare a statement.
TEST_F(EngineTest, OneSignatureCheckPerTablePerQuery) {
  const std::string sql = "SELECT MAX(col1) FROM t_csv WHERE col0 < 500000000";
  for (const int64_t cache_bytes : {int64_t{0}, int64_t{1} << 20}) {
    SCOPED_TRACE("result_cache_bytes=" + std::to_string(cache_bytes));
    RawEngineOptions options;
    options.result_cache_bytes = cache_bytes;
    RawEngine engine(options);
    ASSERT_OK(engine.RegisterCsv("t_csv", Path("t.csv"), spec_.ToSchema()));
    ASSERT_OK(engine.RegisterBinary("t_bin", Path("t.bin"), spec_.ToSchema()));
    auto session = engine.OpenSession();
    auto checks = [&](const char* table) {
      return engine.Stats().table(table)->signature_checks;
    };

    ASSERT_OK(session->Parse(sql).status());
    ASSERT_OK_AND_ASSIGN(
        PreparedQuery prepared,
        session->Prepare("SELECT MAX(col1) FROM t_csv WHERE col0 < ?"));
    EXPECT_EQ(checks("t_csv"), 0) << "Parse/Prepare touched the file";

    struct Shape {
      const char* name;
      std::function<StatusOr<QueryResult>()> run;
      bool join;
    };
    QuerySpec programmatic;
    programmatic.tables = {"t_bin"};
    programmatic.projections.push_back(ColumnRefSpec{"", "col2"});
    programmatic.limit = 3;
    const std::vector<Shape> shapes = {
        {"miss", [&] { return session->Query(sql); }, false},
        {"hit", [&] { return session->Query(sql); }, false},
        {"explain", [&] { return session->Query("EXPLAIN " + sql); }, false},
        {"join",
         [&] {
           return session->Query(
               "SELECT COUNT(*) FROM t_csv JOIN t_bin ON t_csv.col0 = "
               "t_bin.col0");
         },
         true},
        {"prepared", [&] { return prepared.Execute({Datum::Int64(7)}); },
         false},
        {"prepared again", [&] { return prepared.Execute({Datum::Int64(7)}); },
         false},
        {"stream", [&] { return session->Stream(sql)->Consume(); }, false},
        {"programmatic", [&] { return session->Execute(programmatic); },
         false},
    };
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(shape.name);
      const int64_t csv_before = checks("t_csv");
      const int64_t bin_before = checks("t_bin");
      ASSERT_OK_AND_ASSIGN(QueryResult result, shape.run());
      const bool on_bin =
          shape.join || std::string(shape.name) == "programmatic";
      const bool on_csv = shape.join || !on_bin;
      EXPECT_EQ(checks("t_csv") - csv_before, on_csv ? 1 : 0)
          << result.plan_description;
      EXPECT_EQ(checks("t_bin") - bin_before, on_bin ? 1 : 0)
          << result.plan_description;
      if (std::string(shape.name) == "hit") {
        EXPECT_EQ(result.plan_description.find("[result-cache hit]") !=
                      std::string::npos,
                  cache_bytes > 0)
            << result.plan_description;
      }
    }
  }
}

TEST_F(EngineTest, MissingFileIsATypedErrorAtExecutionNotAtPrepare) {
  RawEngine engine;
  ASSERT_OK(engine.RegisterCsv("gone", Path("gone.csv"), spec_.ToSchema()));
  auto session = engine.OpenSession();
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery prepared,
      session->Prepare("SELECT MAX(col1) FROM gone WHERE col0 < ?"));
  auto result = prepared.Execute({Datum::Int64(5)});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError)
      << result.status().ToString();
}

TEST_F(EngineTest, SimpleAggregateMatchesGroundTruth) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  int64_t lit = 300000000;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col5) FROM t_csv WHERE col1 < " +
                     std::to_string(lit)));
  ASSERT_OK_AND_ASSIGN(Datum got, result.Scalar());
  Datum expected = ExpectedMax(spec_, 5, 1, lit);
  EXPECT_EQ(*got.AsInt64(), expected.int64_value());
}

TEST_F(EngineTest, AllAccessPathsAgree) {
  int64_t lit = 450000000;
  std::string sql =
      "SELECT MAX(col7) FROM t_csv WHERE col1 < " + std::to_string(lit);
  Datum expected = ExpectedMax(spec_, 7, 1, lit);
  for (AccessPathKind path :
       {AccessPathKind::kExternalTable, AccessPathKind::kInSitu,
        AccessPathKind::kJit, AccessPathKind::kLoaded}) {
    auto engine = NewEngine();
    auto session = engine->OpenSession();
    PlannerOptions options;
    options.access_path = path;
    options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
    auto result = session->Query(sql, options);
    if (!result.ok() && path == AccessPathKind::kJit) {
      GTEST_SKIP() << "JIT unavailable: " << result.status().ToString();
    }
    ASSERT_TRUE(result.ok())
        << AccessPathKindToString(path) << ": " << result.status().ToString();
    ASSERT_OK_AND_ASSIGN(Datum got, result->Scalar());
    EXPECT_DOUBLE_EQ(*got.AsDouble(), expected.float64_value())
        << AccessPathKindToString(path);
  }
}

TEST_F(EngineTest, ShredsAndFullColumnsAgreeOnBothFormats) {
  int64_t lit = 200000000;
  for (const char* table : {"t_csv", "t_bin"}) {
    std::string sql = std::string("SELECT MAX(col5) FROM ") + table +
                      " WHERE col1 < " + std::to_string(lit);
    Datum expected = ExpectedMax(spec_, 5, 1, lit);
    for (ShredPolicy policy :
         {ShredPolicy::kFullColumns, ShredPolicy::kShreds,
          ShredPolicy::kMultiColumnShreds}) {
      auto engine = NewEngine();
      auto session = engine->OpenSession();
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.shred_policy = policy;
      ASSERT_OK_AND_ASSIGN(QueryResult result, session->Query(sql, options));
      ASSERT_OK_AND_ASSIGN(Datum got, result.Scalar());
      EXPECT_EQ(*got.AsInt64(), expected.int64_value())
          << table << " " << ShredPolicyToString(policy);
    }
  }
}

TEST_F(EngineTest, SecondQueryUsesPositionalMapAndCache) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  ASSERT_OK(session->Query("SELECT MAX(col1) FROM t_csv WHERE col1 < 900000000",
                           options)
                .status());
  // Positional map built by query 1.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const PositionalMap> pmap,
                       engine->PositionalMapSnapshot("t_csv"));
  ASSERT_NE(pmap, nullptr);
  EXPECT_EQ(pmap->num_rows(), 2000);
  EXPECT_EQ(engine->Stats().table("t_csv")->row_count, 2000);
  // col1 should now be served from the shred cache (full column).
  EXPECT_TRUE(engine->ShredCacheContainsFull("t_csv", 1));
  // Second query over a different column still correct.
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col5) FROM t_csv WHERE col1 < 100000000",
                     options));
  ASSERT_OK_AND_ASSIGN(Datum got, result.Scalar());
  EXPECT_EQ(*got.AsInt64(),
            ExpectedMax(spec_, 5, 1, 100000000).int64_value());
}

TEST_F(EngineTest, RepeatQueryServedFromCacheIsFaster) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  std::string sql = "SELECT MAX(col3) FROM t_csv WHERE col1 < 800000000";
  ASSERT_OK_AND_ASSIGN(QueryResult cold, session->Query(sql, options));
  // The first run pools *both* touched columns: col1 as a full column (base
  // scan) and col3 as a shred over the qualifying rows (late scan).
  EXPECT_TRUE(engine->ShredCacheContainsFull("t_csv", 1));
  EXPECT_GE(engine->Stats().shred_cache.entries, 2);
  ASSERT_OK_AND_ASSIGN(QueryResult warm, session->Query(sql, options));
  ASSERT_OK_AND_ASSIGN(Datum a, cold.Scalar());
  ASSERT_OK_AND_ASSIGN(Datum b, warm.Scalar());
  EXPECT_EQ(a, b);
  EXPECT_GT(engine->Stats().shred_cache.hits, 0);
}

TEST_F(EngineTest, CountAndMultipleAggregates) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query(
          "SELECT COUNT(*), MIN(col2), MAX(col2), AVG(col2) FROM t_bin"));
  ASSERT_EQ(result.num_rows(), 1);
  ASSERT_OK_AND_ASSIGN(Datum count, result.ValueAt(0, 0));
  EXPECT_EQ(count.int64_value(), 2000);
  ASSERT_OK_AND_ASSIGN(Datum lo, result.ValueAt(0, 1));
  ASSERT_OK_AND_ASSIGN(Datum hi, result.ValueAt(0, 2));
  EXPECT_LE(*lo.AsInt64(), *hi.AsInt64());
}

TEST_F(EngineTest, ProjectionWithLimit) {
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT col0, col1 FROM t_csv WHERE col0 < 500000000 "
                     "LIMIT 5"));
  EXPECT_LE(result.num_rows(), 5);
  EXPECT_EQ(result.num_columns(), 2);
  EXPECT_EQ(result.table.schema().field(0).name, "col0");
}

TEST_F(EngineTest, MultiPredicateQuery) {
  auto engine = NewEngine();
  TableDataSource source(spec_);
  int64_t expected = 0;
  for (int64_t r = 0; r < spec_.rows; ++r) {
    if (*source.Value(r, 1).AsInt64() < 500000000 &&
        *source.Value(r, 4).AsInt64() < 500000000) {
      ++expected;
    }
  }
  for (ShredPolicy policy :
       {ShredPolicy::kFullColumns, ShredPolicy::kShreds,
        ShredPolicy::kMultiColumnShreds}) {
    auto engine2 = NewEngine();
    auto session2 = engine2->OpenSession();
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.shred_policy = policy;
    ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        session2->Query("SELECT COUNT(*) FROM t_csv WHERE col1 < 500000000 "
                        "AND col4 < 500000000",
                        options));
    ASSERT_OK_AND_ASSIGN(Datum got, result.Scalar());
    EXPECT_EQ(got.int64_value(), expected) << ShredPolicyToString(policy);
  }
}

// --- joins ---------------------------------------------------------------------

class JoinEngineTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    // Two small tables with a controlled key overlap. file2 shuffled.
    spec_ = TableSpec::UniformInt32("j", 6, 600, /*seed=*/33);
    for (auto& col : spec_.columns) col.max_value = 200;  // dense keys
    ASSERT_OK(WriteCsvFile(spec_, Path("f1.csv")));
    perm_ = ShuffledPermutation(spec_.rows, 5);
    ASSERT_OK(WriteCsvFile(spec_, Path("f2.csv"), &perm_));
  }

  std::unique_ptr<RawEngine> NewEngine() {
    auto engine = std::make_unique<RawEngine>();
    EXPECT_OK(engine->RegisterCsv("f1", Path("f1.csv"), spec_.ToSchema(),
                                  CsvOptions(), 2));
    EXPECT_OK(engine->RegisterCsv("f2", Path("f2.csv"), spec_.ToSchema(),
                                  CsvOptions(), 2));
    return engine;
  }

  // Ground truth for SELECT MAX(proj) FROM f1 JOIN f2 ON f1.col0=f2.col0
  // WHERE f2.col1 < lit, where proj is (table, column).
  int64_t ExpectedJoinMax(int proj_table, int proj_col, int64_t lit) {
    TableDataSource source(spec_);
    int64_t best = INT64_MIN;
    for (int64_t l = 0; l < spec_.rows; ++l) {
      int64_t lkey = *source.Value(l, 0).AsInt64();
      for (int64_t r = 0; r < spec_.rows; ++r) {
        // f2 row r holds original row perm_[r].
        int64_t orig = perm_[static_cast<size_t>(r)];
        if (*source.Value(orig, 0).AsInt64() != lkey) continue;
        if (*source.Value(orig, 1).AsInt64() >= lit) continue;
        int64_t v = proj_table == 0 ? *source.Value(l, proj_col).AsInt64()
                                    : *source.Value(orig, proj_col).AsInt64();
        best = std::max(best, v);
      }
    }
    return best;
  }

  TableSpec spec_;
  std::vector<int64_t> perm_;
};

TEST_F(JoinEngineTest, PipelinedProjectionAllPlacementsAgree) {
  int64_t lit = 100;
  int64_t expected = ExpectedJoinMax(0, 4, lit);
  for (JoinProjectionPlacement placement :
       {JoinProjectionPlacement::kEarly, JoinProjectionPlacement::kIntermediate,
        JoinProjectionPlacement::kLate}) {
    auto engine = NewEngine();
    auto session = engine->OpenSession();
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.join_placement = placement;
    ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        session->Query("SELECT MAX(f1.col4) FROM f1 JOIN f2 ON f1.col0 = "
                       "f2.col0 WHERE f2.col1 < " +
                           std::to_string(lit),
                       options));
    ASSERT_OK_AND_ASSIGN(Datum got, result.Scalar());
    EXPECT_EQ(*got.AsInt64(), expected)
        << JoinProjectionPlacementToString(placement);
  }
}

TEST_F(JoinEngineTest, LatePlacementDemotesWhenNoPositionalMapInReach) {
  // kLate projection placement needs a positional map for post-join CSV
  // fetches; with map building disabled the planner must demote to
  // intermediate placement instead of failing at fetch time.
  int64_t lit = 100;
  int64_t expected = ExpectedJoinMax(0, 4, lit);
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.join_placement = JoinProjectionPlacement::kLate;
  options.build_positional_map = false;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(f1.col4) FROM f1 JOIN f2 ON f1.col0 = "
                     "f2.col0 WHERE f2.col1 < " +
                         std::to_string(lit),
                     options));
  ASSERT_OK_AND_ASSIGN(Datum got, result.Scalar());
  EXPECT_EQ(*got.AsInt64(), expected);
  EXPECT_NE(result.plan_description.find("no-pmap"), std::string::npos)
      << result.plan_description;
}

TEST_F(JoinEngineTest, BreakingProjectionAllPlacementsAgree) {
  int64_t lit = 120;
  int64_t expected = ExpectedJoinMax(1, 4, lit);
  for (JoinProjectionPlacement placement :
       {JoinProjectionPlacement::kEarly, JoinProjectionPlacement::kIntermediate,
        JoinProjectionPlacement::kLate}) {
    auto engine = NewEngine();
    auto session = engine->OpenSession();
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.join_placement = placement;
    ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        session->Query("SELECT MAX(f2.col4) FROM f1 JOIN f2 ON f1.col0 = "
                       "f2.col0 WHERE f2.col1 < " +
                           std::to_string(lit),
                       options));
    ASSERT_OK_AND_ASSIGN(Datum got, result.Scalar());
    EXPECT_EQ(*got.AsInt64(), expected)
        << JoinProjectionPlacementToString(placement);
  }
}

// --- REF engine integration -------------------------------------------------------

class RefEngineTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    options_.num_events = 300;
    options_.seed = 17;
    ASSERT_OK(WriteRefFile(Path("e.ref"), options_, 64));
  }

  EventGenOptions options_;
};

TEST_F(RefEngineTest, EventAndParticleQueries) {
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterRef("atlas", Path("e.ref")));
  PlannerOptions opts;
  opts.access_path = AccessPathKind::kInSitu;
  ASSERT_OK_AND_ASSIGN(
      QueryResult events,
      session->Query("SELECT COUNT(*) FROM atlas_events", opts));
  ASSERT_OK_AND_ASSIGN(Datum n, events.Scalar());
  EXPECT_EQ(n.int64_value(), 300);

  // Ground truth via the generator.
  EventGenerator gen(options_);
  int64_t muons_passing = 0;
  for (int64_t i = 0; i < options_.num_events; ++i) {
    Event e = gen.Next();
    for (const Particle& m : e.muons) {
      if (m.pt > 25.0f) ++muons_passing;
    }
  }
  ASSERT_OK_AND_ASSIGN(
      QueryResult muons,
      session->Query("SELECT COUNT(*) FROM atlas_muons WHERE pt > 25.0", opts));
  ASSERT_OK_AND_ASSIGN(Datum count, muons.Scalar());
  EXPECT_EQ(count.int64_value(), muons_passing);
}

TEST_F(RefEngineTest, GroupByEventId) {
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterRef("atlas", Path("e.ref")));
  PlannerOptions opts;
  opts.access_path = AccessPathKind::kInSitu;
  opts.shred_policy = ShredPolicy::kFullColumns;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query(
          "SELECT eventID, COUNT(*) FROM atlas_jets GROUP BY eventID", opts));
  // Every group's count matches the generator's jet multiplicity.
  EventGenerator gen(options_);
  std::vector<int64_t> expected(static_cast<size_t>(options_.num_events), 0);
  for (int64_t i = 0; i < options_.num_events; ++i) {
    expected[static_cast<size_t>(i)] =
        static_cast<int64_t>(gen.Next().jets.size());
  }
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    int64_t ev = result.table.column(0)->Value<int64_t>(r);
    EXPECT_EQ(result.table.column(1)->Value<int64_t>(r),
              expected[static_cast<size_t>(ev)]);
  }
}

TEST_F(RefEngineTest, JoinEventsWithGoodRunsCsv) {
  ASSERT_OK(WriteGoodRunsCsv(Path("runs.csv"), options_));
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterRef("atlas", Path("e.ref")));
  ASSERT_OK(engine.RegisterCsv("good_runs", Path("runs.csv"),
                               Schema{{"run", DataType::kInt32}}, CsvOptions(),
                               1));
  PlannerOptions opts;
  opts.access_path = AccessPathKind::kInSitu;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT COUNT(*) FROM atlas_events JOIN good_runs ON "
                     "atlas_events.runNumber = good_runs.run",
                     opts));
  // Ground truth.
  std::vector<int32_t> good = EventGenerator::GoodRuns(options_);
  std::set<int32_t> good_set(good.begin(), good.end());
  EventGenerator gen(options_);
  int64_t expected = 0;
  for (int64_t i = 0; i < options_.num_events; ++i) {
    if (good_set.count(gen.Next().run_number) > 0) ++expected;
  }
  ASSERT_OK_AND_ASSIGN(Datum n, result.Scalar());
  EXPECT_EQ(n.int64_value(), expected);
}

}  // namespace
}  // namespace raw
