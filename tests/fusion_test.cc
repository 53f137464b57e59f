// JIT pipeline fusion: fused scan→filter→project/aggregate loops must be
// indistinguishable from the interpreted operator pipeline except for speed.
// These tests sweep formats × thread counts × kernel tiers × aggregate kinds
// comparing fused and interpreted results cell by cell, and pin down the
// eligibility rules (fallback formats, the RAW_JIT_FUSION knob, dense
// shred-cache inputs, observability counters).

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/kernels.h"
#include "common/stopwatch.h"
#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

using ::raw::testing::TempDirTest;

/// Planner options for fusion tests: shred-cache population off by default so
/// every query reads the file and fusion eligibility does not depend on which
/// query ran first (the dense-input tests opt back in explicitly).
PlannerOptions Opts(JitFusion fusion, int threads) {
  PlannerOptions options;
  options.jit_fusion = fusion;
  options.num_threads = threads;
  options.populate_shred_cache = false;
  return options;
}

void ExpectSameResults(const QueryResult& fused, const QueryResult& interp,
                       const std::string& context) {
  ASSERT_EQ(fused.num_rows(), interp.num_rows()) << context;
  ASSERT_EQ(fused.num_columns(), interp.num_columns()) << context;
  for (int64_t r = 0; r < fused.num_rows(); ++r) {
    for (int c = 0; c < fused.num_columns(); ++c) {
      ASSERT_OK_AND_ASSIGN(Datum f, fused.ValueAt(r, c));
      ASSERT_OK_AND_ASSIGN(Datum i, interp.ValueAt(r, c));
      // ToString round-trips doubles at full precision, so string equality
      // is bit-for-bit equality for every supported type.
      ASSERT_EQ(f.ToString(), i.ToString())
          << context << " at (" << r << "," << c << ")";
    }
  }
}

bool Fused(const QueryResult& result) {
  return result.plan_description.find("[jit-fused]") != std::string::npos;
}

class FusionTest : public TempDirTest {
 protected:
  void SetUp() override {
    TempDirTest::SetUp();
    // 8 columns: int32 except col3 (int64) and col4 (float64).
    spec_ = TableSpec::UniformInt32("f", 8, 3000, 99);
    spec_.columns[3].type = DataType::kInt64;
    spec_.columns[4].type = DataType::kFloat64;
  }

  /// Engine over the CSV copy; `warm` runs one interpreted full scan first so
  /// the complete positional map the fused CSV plug-in requires is published.
  std::unique_ptr<RawEngine> CsvEngine(bool warm = true) {
    csv_path_ = Path("f.csv");
    EXPECT_OK(WriteCsvFile(spec_, csv_path_));
    auto engine = std::make_unique<RawEngine>();
    auto session = engine->OpenSession();
    EXPECT_OK(engine->RegisterCsv("f", csv_path_, spec_.ToSchema()));
    if (warm) {
      EXPECT_TRUE(
          session->Query("SELECT SUM(col0) FROM f", Opts(JitFusion::kOff, 1))
              .ok());
    }
    return engine;
  }

  std::unique_ptr<RawEngine> BinEngine() {
    bin_path_ = Path("f.bin");
    EXPECT_OK(WriteBinaryFile(spec_, bin_path_));
    auto engine = std::make_unique<RawEngine>();
    EXPECT_OK(engine->RegisterBinary("f", bin_path_, spec_.ToSchema()));
    return engine;
  }

  bool CompilerAvailable(RawEngine& engine) {
    return engine.Stats().jit_compiler_available();
  }

  /// Aggregate shapes whose fused plans parallelize (COUNT / MIN / MAX /
  /// integer SUM merge exactly at any thread count).
  std::vector<std::string> MergeableAggQueries() {
    const std::string l1 = spec_.SelectivityLiteral(1, 0.4).ToString();
    const std::string l3 = spec_.SelectivityLiteral(3, 0.7).ToString();
    return {
        "SELECT COUNT(*) FROM f WHERE col1 < " + l1,
        "SELECT COUNT(col2) FROM f WHERE col1 < " + l1,
        "SELECT MAX(col2), MIN(col2), SUM(col2) FROM f WHERE col1 < " + l1 +
            " AND col3 >= " + l3,
        "SELECT SUM(col3) FROM f WHERE col4 < 500000000",
        "SELECT MAX(col4), MIN(col4) FROM f WHERE col1 < " + l1,
        // Empty result set: MIN/MAX must agree on the no-rows encoding too.
        "SELECT COUNT(*), MAX(col2) FROM f WHERE col1 < 0",
    };
  }

  /// Order-sensitive float aggregates: fused only single-threaded.
  std::vector<std::string> FloatAggQueries() {
    const std::string l1 = spec_.SelectivityLiteral(1, 0.4).ToString();
    return {
        "SELECT SUM(col4) FROM f WHERE col1 < " + l1,
        "SELECT AVG(col4), COUNT(*) FROM f WHERE col1 < " + l1,
    };
  }

  std::vector<std::string> ProjectionQueries() {
    const std::string l1 = spec_.SelectivityLiteral(1, 0.1).ToString();
    return {
        "SELECT col0, col4 FROM f WHERE col1 < " + l1,
        "SELECT col2 FROM f WHERE col1 < " + l1 + " LIMIT 7",
    };
  }

  TableSpec spec_;
  std::string csv_path_;
  std::string bin_path_;
};

// --- fused == interpreted, per format ----------------------------------------

TEST_F(FusionTest, CsvFusedMatchesInterpreted) {
  auto engine = CsvEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  std::vector<std::string> queries = MergeableAggQueries();
  for (const std::string& q : ProjectionQueries()) queries.push_back(q);
  for (const std::string& sql : queries) {
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           session->Query(sql, Opts(JitFusion::kOn, threads)));
      ASSERT_OK_AND_ASSIGN(QueryResult interp,
                           session->Query(sql, Opts(JitFusion::kOff, threads)));
      EXPECT_TRUE(Fused(fused)) << fused.plan_description << " for " << sql;
      EXPECT_FALSE(Fused(interp)) << interp.plan_description;
      ExpectSameResults(fused, interp,
                        sql + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(FusionTest, BinFusedMatchesInterpreted) {
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  std::vector<std::string> queries = MergeableAggQueries();
  for (const std::string& q : ProjectionQueries()) queries.push_back(q);
  for (const std::string& sql : queries) {
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           session->Query(sql, Opts(JitFusion::kOn, threads)));
      ASSERT_OK_AND_ASSIGN(QueryResult interp,
                           session->Query(sql, Opts(JitFusion::kOff, threads)));
      EXPECT_TRUE(Fused(fused)) << fused.plan_description << " for " << sql;
      EXPECT_NE(fused.plan_description.find("[fused-bin-scan"),
                std::string::npos)
          << fused.plan_description;
      ExpectSameResults(fused, interp,
                        sql + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(FusionTest, RefFusedMatchesInterpreted) {
  EventGenOptions gen;
  gen.num_events = 2000;
  ASSERT_OK(WriteRefFile(Path("e.ref"), gen, /*cluster_events=*/128));
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterRef("a", Path("e.ref")));
  if (!CompilerAvailable(engine)) GTEST_SKIP() << "no compiler";
  const std::vector<std::string> queries = {
      "SELECT MAX(pt), MIN(eta), COUNT(*) FROM a_muons WHERE pt > 10",
      "SELECT COUNT(*) FROM a_events WHERE runNumber > 2010",
  };
  for (const std::string& sql : queries) {
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           session->Query(sql, Opts(JitFusion::kOn, threads)));
      ASSERT_OK_AND_ASSIGN(QueryResult interp,
                           session->Query(sql, Opts(JitFusion::kOff, threads)));
      EXPECT_TRUE(Fused(fused)) << fused.plan_description << " for " << sql;
      EXPECT_NE(fused.plan_description.find("[fused-ref-scan"),
                std::string::npos)
          << fused.plan_description;
      ExpectSameResults(fused, interp,
                        sql + " threads=" + std::to_string(threads));
    }
  }
}

// --- one kernel tier: plain JIT scans run pipeline kernels ------------------

TEST_F(FusionTest, WarmCsvKernelScansMatchInSitu) {
  // Warm positional scans read each morsel's anchor positions straight from
  // the map (24 columns: the map tracks 0, 10 and 20, so anchors sit at
  // every slot of its row-major array): the one-row table and the short
  // last morsel (3000 rows split into 256-row morsels at 4 threads) must
  // come out exactly as in situ.
  for (int64_t rows : {int64_t{1}, int64_t{3000}}) {
    spec_ = TableSpec::UniformInt32("f", 24, rows, 99);
    spec_.columns[3].type = DataType::kInt64;
    spec_.columns[4].type = DataType::kFloat64;
    auto engine = CsvEngine();
    auto session = engine->OpenSession();
    if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
    const std::string lit = spec_.SelectivityLiteral(1, 0.5).ToString();
    const std::vector<std::string> queries = {
        "SELECT col0, col2, col4 FROM f",
        "SELECT col12, col23 FROM f",
        "SELECT col2, col3 FROM f WHERE col1 < " + lit,
        "SELECT col21 FROM f WHERE col14 < " + lit,
        "SELECT col5, COUNT(*) FROM f GROUP BY col5",
    };
    for (const std::string& sql : queries) {
      for (int threads : {1, 4}) {
        const std::string where = sql + " rows=" + std::to_string(rows) +
                                  " threads=" + std::to_string(threads);
        PlannerOptions insitu = Opts(JitFusion::kOff, threads);
        insitu.access_path = AccessPathKind::kInSitu;
        ASSERT_OK_AND_ASSIGN(QueryResult want, session->Query(sql, insitu));
        ASSERT_OK_AND_ASSIGN(
            QueryResult jit,
            session->Query(sql, Opts(JitFusion::kOff, threads)));
        EXPECT_NE(jit.plan_description.find("[pmap-scan f"), std::string::npos)
            << jit.plan_description;
        EXPECT_FALSE(Fused(jit)) << jit.plan_description;
        ExpectSameResults(jit, want, "kJit " + where);
        ASSERT_OK_AND_ASSIGN(
            QueryResult fused,
            session->Query(sql, Opts(JitFusion::kOn, threads)));
        ExpectSameResults(fused, want, "kOn " + where);
        EXPECT_EQ(Fused(fused), sql.find("GROUP BY") == std::string::npos)
            << fused.plan_description;
        if (rows > 1 && threads > 1) {
          EXPECT_NE(jit.plan_description.find("[parallel x4"),
                    std::string::npos)
              << jit.plan_description;
        }
      }
    }
  }
}

TEST_F(FusionTest, JitGroupByPlansStayUnfused) {
  // A GROUP BY never fuses: under kOn its kJit scan keeps the plain scan's
  // plan text and does not count as a fused plan.
  auto csv = CsvEngine();
  if (!CompilerAvailable(*csv)) GTEST_SKIP() << "no compiler";
  auto bin = BinEngine();
  EventGenOptions gen;
  gen.num_events = 500;
  ASSERT_OK(WriteRefFile(Path("e.ref"), gen, /*cluster_events=*/64));
  RawEngine ref;
  ASSERT_OK(ref.RegisterRef("a", Path("e.ref")));
  struct Case {
    RawEngine* engine;
    std::string sql;
    std::string scan_tag;
  };
  const std::vector<Case> cases = {
      {csv.get(), "SELECT col2, COUNT(*) FROM f GROUP BY col2",
       "[pmap-scan f anchor=0] "},
      {bin.get(), "SELECT col2, MAX(col3) FROM f GROUP BY col2",
       "[bin-scan f] "},
      {&ref, "SELECT runNumber, COUNT(*) FROM a_events GROUP BY runNumber",
       "[ref-scan a_events] "},
  };
  for (const Case& c : cases) {
    const int64_t fused_before = c.engine->Stats().plans_fused;
    auto session = c.engine->OpenSession();
    for (int threads : {1, 4}) {
      const PlannerOptions on_opts = Opts(JitFusion::kOn, threads);
      const PlannerOptions off_opts = Opts(JitFusion::kOff, threads);
      ASSERT_OK_AND_ASSIGN(QueryResult on, session->Query(c.sql, on_opts));
      ASSERT_OK_AND_ASSIGN(QueryResult off, session->Query(c.sql, off_opts));
      EXPECT_EQ(on.plan_description, off.plan_description) << c.sql;
      EXPECT_NE(on.plan_description.find(c.scan_tag), std::string::npos)
          << on.plan_description;
      EXPECT_EQ(on.plan_description.find("fused"), std::string::npos)
          << on.plan_description;
      ExpectSameResults(on, off, c.sql);
    }
    EXPECT_EQ(c.engine->Stats().plans_fused, fused_before) << c.sql;
    EXPECT_EQ(fused_before, 0) << c.sql;
  }
}

// --- float aggregates: fuse only where merging is exact ----------------------

TEST_F(FusionTest, FloatAggsFuseOnlySingleThreaded) {
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  for (const std::string& sql : FloatAggQueries()) {
    ASSERT_OK_AND_ASSIGN(QueryResult serial,
                         session->Query(sql, Opts(JitFusion::kOn, 1)));
    EXPECT_TRUE(Fused(serial)) << serial.plan_description << " for " << sql;
    // Parallel float SUM/AVG would reassociate additions; the planner must
    // keep those interpreted (morsel order preserves the serial result).
    ASSERT_OK_AND_ASSIGN(QueryResult parallel,
                         session->Query(sql, Opts(JitFusion::kOn, 4)));
    EXPECT_FALSE(Fused(parallel)) << parallel.plan_description;
    ASSERT_OK_AND_ASSIGN(QueryResult interp,
                         session->Query(sql, Opts(JitFusion::kOff, 1)));
    ExpectSameResults(serial, interp, sql + " serial");
    ExpectSameResults(parallel, interp, sql + " parallel");
  }
}

// --- kernel-tier sweep -------------------------------------------------------

TEST_F(FusionTest, FusedResultsIdenticalAcrossKernelTiers) {
  struct TierRestore {
    ~TierRestore() { ResetKernelTierFromEnv(); }
  } restore;
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  const std::string sql = "SELECT COUNT(*), MAX(col2), SUM(col3) FROM f "
                          "WHERE col1 < " +
                          spec_.SelectivityLiteral(1, 0.4).ToString();
  ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                       session->Query(sql, Opts(JitFusion::kOff, 1)));
  for (int t = 0; t <= static_cast<int>(MaxSupportedKernelTier()); ++t) {
    SetKernelTier(static_cast<KernelTier>(t));
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           session->Query(sql, Opts(JitFusion::kOn, threads)));
      EXPECT_TRUE(Fused(fused)) << fused.plan_description;
      ExpectSameResults(fused, baseline,
                        "tier=" + std::to_string(t) +
                            " threads=" + std::to_string(threads));
    }
  }
}

// --- eligibility & fallback --------------------------------------------------

TEST_F(FusionTest, FallbackFormatsRunInterpretedTransparently) {
  ASSERT_OK(WriteJsonlFile(spec_, Path("f.jsonl")));
  ASSERT_OK(WriteCsvGzTable(spec_, Path("f.csv.gz")));
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterJsonl("j", Path("f.jsonl"), spec_.ToSchema()));
  ASSERT_OK(engine.RegisterCsvGz("z", Path("f.csv.gz"), spec_.ToSchema()));
  const std::string lit = spec_.SelectivityLiteral(1, 0.4).ToString();
  for (const std::string table : {"j", "z"}) {
    const std::string sql =
        "SELECT COUNT(*), MAX(col2) FROM " + table + " WHERE col1 < " + lit;
    // Same query, fusion on vs. off: the format has no fusion plug-in, so
    // both runs are interpreted and agree — fusion never breaks a format.
    ASSERT_OK_AND_ASSIGN(QueryResult on,
                         session->Query(sql, Opts(JitFusion::kOn, 1)));
    ASSERT_OK_AND_ASSIGN(QueryResult off,
                         session->Query(sql, Opts(JitFusion::kOff, 1)));
    EXPECT_FALSE(Fused(on)) << on.plan_description;
    ExpectSameResults(on, off, sql);
  }
}

TEST_F(FusionTest, IneligibleShapesStayInterpreted) {
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  const std::string lit = spec_.SelectivityLiteral(1, 0.4).ToString();
  // GROUP BY is out of scope for the fused tier.
  ASSERT_OK_AND_ASSIGN(
      QueryResult grouped,
      session->Query("SELECT col2, COUNT(*) FROM f WHERE col1 < " + lit +
                         " GROUP BY col2",
                     Opts(JitFusion::kOn, 1)));
  EXPECT_FALSE(Fused(grouped)) << grouped.plan_description;
  // kOff wins over an otherwise perfectly fusable query.
  ASSERT_OK_AND_ASSIGN(
      QueryResult off,
      session->Query("SELECT COUNT(*) FROM f WHERE col1 < " + lit,
                     Opts(JitFusion::kOff, 1)));
  EXPECT_FALSE(Fused(off)) << off.plan_description;
}

TEST_F(FusionTest, InexactIntegerLiteralsStayInterpretedAndExact) {
  // A literal an integer column cannot hold exactly compares widened: the
  // plan stays unfused and answers like the exact predicate it implies.
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  const std::string lit = spec_.SelectivityLiteral(1, 0.4).ToString();
  struct Case {
    std::string inexact;
    std::string exact;
  };
  const std::vector<Case> cases = {
      {"col1 < " + lit + ".5", "col1 <= " + lit},
      {"col1 >= " + lit + ".5", "col1 > " + lit},
      {"col1 = " + lit + ".5", "col1 < 0"},
      {"col1 < 5000000000", "col1 >= -2147483648"},
      {"col3 < " + lit + ".5", "col3 <= " + lit},
  };
  for (const Case& c : cases) {
    const std::string sql = "SELECT COUNT(*), MAX(col2) FROM f WHERE ";
    SCOPED_TRACE(c.inexact);
    ASSERT_OK_AND_ASSIGN(QueryResult on,
                         session->Query(sql + c.inexact,
                                        Opts(JitFusion::kOn, 1)));
    EXPECT_FALSE(Fused(on)) << on.plan_description;
    ASSERT_OK_AND_ASSIGN(QueryResult off,
                         session->Query(sql + c.inexact,
                                        Opts(JitFusion::kOff, 1)));
    ExpectSameResults(on, off, c.inexact);
    ASSERT_OK_AND_ASSIGN(
        QueryResult exact,
        session->Query(sql + c.exact, Opts(JitFusion::kOn, 1)));
    EXPECT_TRUE(Fused(exact)) << exact.plan_description;
    ExpectSameResults(on, exact, c.exact);
  }
}

// --- dense (shred-cache) inputs ----------------------------------------------

TEST_F(FusionTest, CachedColumnsFeedFusedPipelinesAsDenseInputs) {
  auto engine = CsvEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  // Warm col5 into the shred cache with an interpreted full-column scan.
  PlannerOptions warm = Opts(JitFusion::kOff, 1);
  warm.populate_shred_cache = true;
  ASSERT_OK_AND_ASSIGN(QueryResult warmed,
                       session->Query("SELECT SUM(col5) FROM f", warm));
  ASSERT_TRUE(engine->ShredCacheContainsFull("f", 5));

  // col5 now arrives dense while col1 is still parsed from the file: the
  // fused kernel mixes both input kinds.
  const std::string sql = "SELECT SUM(col5), MAX(col5) FROM f WHERE col1 < " +
                          spec_.SelectivityLiteral(1, 0.4).ToString();
  ASSERT_OK_AND_ASSIGN(QueryResult fused,
                       session->Query(sql, Opts(JitFusion::kOn, 1)));
  EXPECT_TRUE(Fused(fused)) << fused.plan_description;
  PlannerOptions no_cache = Opts(JitFusion::kOff, 1);
  no_cache.use_shred_cache = false;
  ASSERT_OK_AND_ASSIGN(QueryResult interp, session->Query(sql, no_cache));
  ExpectSameResults(fused, interp, sql);

  // Once every needed column is cached there is no file loop left to fuse;
  // the plan falls back to (cheap, in-memory) interpreted operators.
  ASSERT_OK_AND_ASSIGN(
      QueryResult all_cached,
      session->Query("SELECT SUM(col5) FROM f WHERE col5 >= 0",
                     Opts(JitFusion::kOn, 1)));
  EXPECT_FALSE(Fused(all_cached)) << all_cached.plan_description;
  ASSERT_OK_AND_ASSIGN(Datum full_sum, warmed.Scalar());
  ASSERT_OK_AND_ASSIGN(Datum cached_sum, all_cached.Scalar());
  EXPECT_EQ(full_sum.ToString(), cached_sum.ToString());
}

// --- observability -----------------------------------------------------------

TEST_F(FusionTest, StatsCountFusedAndInterpretedPlans) {
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  EngineStats before = engine->Stats();
  EXPECT_EQ(before.plans_fused, 0);

  const std::string lit = spec_.SelectivityLiteral(1, 0.4).ToString();
  ASSERT_OK_AND_ASSIGN(QueryResult fused,
                       session->Query("SELECT COUNT(*) FROM f WHERE col1 < " +
                                          lit,
                                      Opts(JitFusion::kOn, 1)));
  ASSERT_TRUE(Fused(fused));
  EngineStats after = engine->Stats();
  EXPECT_EQ(after.plans_fused, 1);
  EXPECT_GE(after.jit_cache.compiles, 1);
  EXPECT_GT(after.jit_cache.total_compile_seconds, 0.0);
  // The first execution pays the compile; it is charged to compile time, not
  // execution time, so benchmarks can subtract it.
  EXPECT_GT(fused.compile_seconds, 0.0);

  ASSERT_OK_AND_ASSIGN(
      QueryResult grouped,
      session->Query("SELECT col2, COUNT(*) FROM f GROUP BY col2",
                     Opts(JitFusion::kOn, 1)));
  EXPECT_FALSE(Fused(grouped));
  EXPECT_GE(engine->Stats().plans_interpreted, 1);

  // Re-running the same shape hits the template cache: no new compile.
  const int64_t compiles = engine->Stats().jit_cache.compiles;
  ASSERT_OK_AND_ASSIGN(QueryResult again,
                       session->Query("SELECT COUNT(*) FROM f WHERE col1 < " +
                                          lit,
                                      Opts(JitFusion::kOn, 1)));
  ASSERT_TRUE(Fused(again));
  EXPECT_EQ(engine->Stats().jit_cache.compiles, compiles);
  EXPECT_EQ(engine->Stats().plans_fused, 2);
}

// --- run-time literal binding ------------------------------------------------

/// Runs the prepared `COUNT(*), MAX(col4) WHERE col<column> < ?` with each of
/// `literals`, fused and interpreted, at 1 and 4 threads: every fused answer
/// must equal the interpreted one, and the fused executions together must
/// compile exactly one kernel.
void SweepLiterals(RawEngine& engine, int column,
                   const std::vector<Datum>& literals,
                   const std::string& context) {
  auto session = engine.OpenSession();
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery query,
      session->Prepare("SELECT COUNT(*), MAX(col4) FROM f WHERE col" +
                       std::to_string(column) + " < ?"));
  int64_t fused_compiles = 0;
  for (int threads : {1, 4}) {
    for (const Datum& lit : literals) {
      const std::string where = context + " threads=" +
                                std::to_string(threads) + " col" +
                                std::to_string(column) + " < " +
                                lit.ToString();
      session->set_planner_options(Opts(JitFusion::kOn, threads));
      const int64_t before = engine.Stats().jit_cache.compiles;
      ASSERT_OK_AND_ASSIGN(QueryResult fused, query.Execute({lit}));
      fused_compiles += engine.Stats().jit_cache.compiles - before;
      EXPECT_TRUE(Fused(fused)) << fused.plan_description << " " << where;
      session->set_planner_options(Opts(JitFusion::kOff, threads));
      ASSERT_OK_AND_ASSIGN(QueryResult interp, query.Execute({lit}));
      ExpectSameResults(fused, interp, where);
    }
  }
  EXPECT_EQ(fused_compiles, 1) << context << " col" << column;
}

/// Literals around `v` (a value the column holds) and the type's extremes;
/// neighbours one unit / one ulp apart straddle `v`, so a literal bound with
/// the wrong bits changes the count.
std::vector<Datum> LiteralsAround(const Datum& v) {
  switch (v.type()) {
    case DataType::kInt32:
      return {Datum::Int32(INT32_MIN), Datum::Int32(INT32_MAX),
              Datum::Int32(v.int32_value()), Datum::Int32(v.int32_value() + 1),
              Datum::Int32(0)};
    case DataType::kInt64:
      return {Datum::Int64(INT64_MIN), Datum::Int64(INT64_MAX),
              Datum::Int64(v.int64_value()), Datum::Int64(v.int64_value() + 1),
              Datum::Int64(-1)};
    case DataType::kFloat32: {
      const float f = v.float32_value();
      return {Datum::Float32(f),
              Datum::Float32(std::nextafter(f, INFINITY)),
              Datum::Float32(std::nextafter(f, -INFINITY)),
              Datum::Float32(-FLT_MAX), Datum::Float32(FLT_MAX)};
    }
    default: {
      const double d = v.float64_value();
      return {Datum::Float64(d), Datum::Float64(std::nextafter(d, INFINITY)),
              Datum::Float64(std::nextafter(d, -INFINITY)),
              Datum::Float64(-DBL_MAX), Datum::Float64(DBL_MAX)};
    }
  }
}

TEST_F(FusionTest, OneShapeCompilesOnceForEveryLiteral) {
  // col0 int32, col1 int64, col2 float32, col3 float64, col4 int32.
  spec_ = TableSpec::UniformInt32("f", 5, 3000, 17);
  spec_.columns[1].type = DataType::kInt64;
  spec_.columns[2].type = DataType::kFloat32;
  spec_.columns[3].type = DataType::kFloat64;
  TableDataSource source(spec_);
  for (bool csv : {true, false}) {
    auto engine = csv ? CsvEngine() : BinEngine();
    auto session = engine->OpenSession();
    if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
    for (int column = 0; column < 4; ++column) {
      const std::vector<Datum> literals =
          LiteralsAround(source.Value(0, column));
      // The neighbours straddle row 0's value: the sweep is sensitive to
      // a literal bound with the wrong bits.
      const std::string sql =
          "SELECT COUNT(*) FROM f WHERE col" + std::to_string(column) + " < ";
      ASSERT_OK_AND_ASSIGN(
          QueryResult at,
          session->Query(sql + literals[2].ToString(),
                         Opts(JitFusion::kOff, 1)));
      ASSERT_OK_AND_ASSIGN(
          QueryResult above,
          session->Query(sql + literals[3].ToString(),
                         Opts(JitFusion::kOff, 1)));
      ASSERT_NE(at.Scalar()->ToString(), above.Scalar()->ToString()) << sql;

      SweepLiterals(*engine, column, literals, csv ? "csv" : "bin");
    }
    if (csv) {
      // The predicate column cached whole: it now feeds the kernel densely
      // through the mask prepass, a new shape compiled once.
      PlannerOptions warm = Opts(JitFusion::kOff, 1);
      warm.populate_shred_cache = true;
      ASSERT_OK(session->Query("SELECT SUM(col0) FROM f", warm).status());
      ASSERT_TRUE(engine->ShredCacheContainsFull("f", 0));
      SweepLiterals(*engine, 0, LiteralsAround(source.Value(0, 0)),
                    "csv dense");
    }
  }
}

TEST_F(FusionTest, PreparedReexecutionWithFreshParamsAddsNoCompiles) {
  auto engine = CsvEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  auto session = engine->OpenSession(Opts(JitFusion::kOn, 1));
  ASSERT_OK_AND_ASSIGN(
      PreparedQuery query,
      session->Prepare("SELECT MAX(col2), COUNT(*) FROM f WHERE col1 < ?"));
  ASSERT_OK_AND_ASSIGN(QueryResult first,
                       query.Execute({spec_.SelectivityLiteral(1, 0.5)}));
  ASSERT_TRUE(Fused(first)) << first.plan_description;
  const int64_t compiles = engine->Stats().jit_cache.compiles;
  for (double fraction : {0.1, 0.3, 0.7, 0.9}) {
    ASSERT_OK_AND_ASSIGN(
        QueryResult again,
        query.Execute({spec_.SelectivityLiteral(1, fraction)}));
    EXPECT_TRUE(Fused(again)) << again.plan_description;
    EXPECT_EQ(again.compile_seconds, 0.0) << fraction;
  }
  EXPECT_EQ(engine->Stats().jit_cache.compiles, compiles);
}

// --- JitFusion::kAuto: never wait for the compiler --------------------------

/// Polls until the engine's background compiler has nothing queued or
/// running, for at most a minute.
bool WaitForBackgroundCompiles(RawEngine& engine) {
  Stopwatch watch;
  while (engine.Stats().jit_cache.pending > 0) {
    if (watch.ElapsedSeconds() > 60) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST_F(FusionTest, AutoRunsInterpretedWhileTheKernelCompilesInTheBackground) {
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  const std::string sql = "SELECT COUNT(*), MAX(col2), SUM(col3) FROM f "
                          "WHERE col1 < ";
  const std::string l1 = spec_.SelectivityLiteral(1, 0.4).ToString();
  const std::string l2 = spec_.SelectivityLiteral(1, 0.6).ToString();

  // First query of the shape: the kernel is queued, the query does not wait.
  ASSERT_OK_AND_ASSIGN(QueryResult first,
                       session->Query(sql + l1, Opts(JitFusion::kAuto, 1)));
  EXPECT_FALSE(Fused(first)) << first.plan_description;
  EXPECT_NE(first.plan_description.find("[jit: compiling]"), std::string::npos)
      << first.plan_description;
  EXPECT_EQ(first.compile_seconds, 0.0);
  EXPECT_EQ(engine->Stats().plans_jit_deferred, 1);

  ASSERT_TRUE(WaitForBackgroundCompiles(*engine)) << "compiler never drained";
  const EngineStats drained = engine->Stats();
  EXPECT_GE(drained.jit_cache.background_compiles, 1);
  EXPECT_EQ(drained.jit_cache.failed, 0);

  // The next query of the shape (fresh literal) runs the compiled kernel.
  ASSERT_OK_AND_ASSIGN(QueryResult second,
                       session->Query(sql + l2, Opts(JitFusion::kAuto, 1)));
  EXPECT_TRUE(Fused(second)) << second.plan_description;
  EXPECT_EQ(second.compile_seconds, 0.0);
  EXPECT_EQ(engine->Stats().jit_cache.compiles, drained.jit_cache.compiles);
  EXPECT_EQ(engine->Stats().plans_jit_deferred, 1);

  // Interpreted and fused answers equal the compile-and-wait setting's.
  ASSERT_OK_AND_ASSIGN(QueryResult on1,
                       session->Query(sql + l1, Opts(JitFusion::kOn, 1)));
  ASSERT_OK_AND_ASSIGN(QueryResult on2,
                       session->Query(sql + l2, Opts(JitFusion::kOn, 1)));
  ExpectSameResults(first, on1, sql + l1);
  ExpectSameResults(second, on2, sql + l2);
}

TEST_F(FusionTest, AutoWithoutACompilerRunsInterpretedAndSaysWhy) {
  const char* saved = std::getenv("RAW_JIT_CXX");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(0, ::setenv("RAW_JIT_CXX", "/nonexistent/c++", 1));
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (saved != nullptr) {
    ::setenv("RAW_JIT_CXX", saved_value.c_str(), 1);
  } else {
    ::unsetenv("RAW_JIT_CXX");
  }
  ASSERT_FALSE(CompilerAvailable(*engine));

  const std::string lit = spec_.SelectivityLiteral(1, 0.4).ToString();
  const std::string sql =
      "SELECT COUNT(*), MAX(col2) FROM f WHERE col1 < " + lit;
  PlannerOptions jit = Opts(JitFusion::kAuto, 1);
  jit.access_path = AccessPathKind::kJit;
  ASSERT_OK_AND_ASSIGN(QueryResult result, session->Query(sql, jit));
  EXPECT_FALSE(Fused(result));
  EXPECT_NE(result.plan_description.find("[jit: no compiler]"),
            std::string::npos)
      << result.plan_description;
  // A group-by (JIT scans, no fusion) degrades the same way.
  ASSERT_OK(session->Query("SELECT col0, COUNT(*) FROM f WHERE col1 < " + lit +
                               " GROUP BY col0",
                           jit)
                .status());
  EXPECT_EQ(engine->Stats().plans_jit_deferred, 2);

  PlannerOptions insitu = Opts(JitFusion::kOff, 1);
  insitu.access_path = AccessPathKind::kInSitu;
  ASSERT_OK_AND_ASSIGN(QueryResult reference, session->Query(sql, insitu));
  ExpectSameResults(result, reference, sql);

  // kOn keeps its contract: the JIT scan fails with the typed error.
  PlannerOptions on = Opts(JitFusion::kOn, 1);
  on.access_path = AccessPathKind::kJit;
  auto failed = session->Query(sql, on);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNotImplemented)
      << failed.status().ToString();
}

TEST_F(FusionTest, EngineDestroyedWithCompilesQueuedReturnsPromptly) {
  // Several distinct shapes queue behind one running compile; destroying the
  // engine drops the queue and joins only the compile that is running.
  double one_compile_s = 0;
  double destroy_s = 0;
  int64_t left_pending = 0;
  {
    auto engine = BinEngine();
    auto session = engine->OpenSession();
    if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
    const std::vector<std::string> shapes = {
        "SELECT COUNT(*) FROM f WHERE col1 < 5",
        "SELECT MAX(col2) FROM f WHERE col1 < 5",
        "SELECT MIN(col2) FROM f WHERE col1 < 5",
        "SELECT SUM(col3) FROM f WHERE col1 < 5",
        "SELECT MAX(col0) FROM f WHERE col2 < 5",
        "SELECT MIN(col0) FROM f WHERE col2 < 5",
        "SELECT COUNT(*) FROM f WHERE col2 < 5",
        "SELECT MAX(col5) FROM f WHERE col6 < 5",
    };
    for (const std::string& sql : shapes) {
      ASSERT_OK(session->Query(sql, Opts(JitFusion::kAuto, 1)).status());
    }
    // Wait for the first background compile, so the next one is running.
    Stopwatch wait;
    while (engine->Stats().jit_cache.background_compiles == 0 &&
           wait.ElapsedSeconds() < 60) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const EngineStats stats = engine->Stats();
    ASSERT_GE(stats.jit_cache.background_compiles, 1);
    one_compile_s = stats.jit_cache.total_compile_seconds /
                    static_cast<double>(stats.jit_cache.compiles);
    left_pending = stats.jit_cache.pending;
    session.reset();
    Stopwatch destroy;
    engine.reset();
    destroy_s = destroy.ElapsedSeconds();
  }
  if (left_pending < 4) GTEST_SKIP() << "the compiler drained the queue first";
  // Finishing the queue would take ~left_pending compiles; joining the one
  // running compile takes at most about one.
  EXPECT_LT(destroy_s, one_compile_s * 3 + 0.5)
      << "pending=" << left_pending << " one compile=" << one_compile_s << "s";
}

TEST_F(FusionTest, CompileSecondsChargeOnlyThisQuerysWait) {
  // A compile finishing while another session plans is not charged to it:
  // each query reports only the time its own operators waited.
  auto engine = BinEngine();
  auto session = engine->OpenSession();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  const std::string plan_only = "EXPLAIN SELECT COUNT(*) FROM f WHERE col0 < 7";
  PlannerOptions interpreted = Opts(JitFusion::kOff, 1);
  interpreted.access_path = AccessPathKind::kInSitu;
  auto observer = engine->OpenSession(interpreted);

  // Background compile (kAuto) while the observer plans over and over.
  ASSERT_OK_AND_ASSIGN(
      QueryResult deferred,
      session->Query("SELECT MAX(col2) FROM f WHERE col1 < 9",
                     Opts(JitFusion::kAuto, 1)));
  EXPECT_EQ(deferred.compile_seconds, 0.0);
  int plans = 0;
  while (engine->Stats().jit_cache.pending > 0 && plans < 100000) {
    ASSERT_OK_AND_ASSIGN(QueryResult planned, observer->Query(plan_only));
    EXPECT_EQ(planned.compile_seconds, 0.0);
    ++plans;
  }
  EXPECT_EQ(engine->Stats().jit_cache.pending, 0);

  // Foreground compile (kOn) in another session, same observer.
  QueryResult compiled;
  std::thread compiler([&] {
    auto result = session->Query("SELECT MIN(col2) FROM f WHERE col3 < 9",
                                 Opts(JitFusion::kOn, 1));
    ASSERT_OK(result.status());
    compiled = std::move(result).value();
  });
  const int64_t compiles = engine->Stats().jit_cache.compiles;
  Stopwatch watch;
  while (engine->Stats().jit_cache.compiles == compiles &&
         watch.ElapsedSeconds() < 60) {
    ASSERT_OK_AND_ASSIGN(QueryResult planned, observer->Query(plan_only));
    EXPECT_EQ(planned.compile_seconds, 0.0);
  }
  compiler.join();
  EXPECT_TRUE(Fused(compiled));
  EXPECT_GT(compiled.compile_seconds, 0.0);
}

}  // namespace
}  // namespace raw
