// Property-style parameterized sweeps over the engine's core invariant:
// every (access path, shred policy, positional-map stride, selectivity)
// combination must return identical answers on the same raw file.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "eventsim/ref_reader.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

struct SweepCase {
  AccessPathKind access;
  ShredPolicy policy;
  int pmap_stride;
  double selectivity;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string name = std::string(AccessPathKindToString(c.access)) + "_" +
                     std::string(ShredPolicyToString(c.policy)) + "_s" +
                     std::to_string(c.pmap_stride) + "_p" +
                     std::to_string(static_cast<int>(c.selectivity * 100));
  return name;
}

class ConsistencySweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir(std::move(*TempDir::Create("raw_prop_")));
    spec_ = new TableSpec(TableSpec::UniformInt32("p", 10, 3000, 77));
    spec_->columns[6].type = DataType::kFloat64;
    csv_path_ = new std::string(dir_->FilePath("p.csv"));
    bin_path_ = new std::string(dir_->FilePath("p.bin"));
    ASSERT_OK(WriteCsvFile(*spec_, *csv_path_));
    ASSERT_OK(WriteBinaryFile(*spec_, *bin_path_));
    // Ground truth per selectivity, computed once.
    truth_ = new std::map<int64_t, std::pair<int64_t, int64_t>>();
  }

  static void TearDownTestSuite() {
    delete truth_;
    delete bin_path_;
    delete csv_path_;
    delete spec_;
    delete dir_;
    dir_ = nullptr;
  }

  // (count, max of col6-as-int) for predicate col1 < lit.
  static std::pair<int64_t, int64_t> Truth(int64_t lit) {
    auto it = truth_->find(lit);
    if (it != truth_->end()) return it->second;
    TableDataSource source(*spec_);
    int64_t count = 0;
    double best = -1e300;
    for (int64_t r = 0; r < spec_->rows; ++r) {
      if (*source.Value(r, 1).AsInt64() >= lit) continue;
      ++count;
      best = std::max(best, *source.Value(r, 6).AsDouble());
    }
    auto result = std::make_pair(count, static_cast<int64_t>(best));
    (*truth_)[lit] = result;
    return result;
  }

  static TempDir* dir_;
  static TableSpec* spec_;
  static std::string* csv_path_;
  static std::string* bin_path_;
  static std::map<int64_t, std::pair<int64_t, int64_t>>* truth_;
};

TempDir* ConsistencySweep::dir_ = nullptr;
TableSpec* ConsistencySweep::spec_ = nullptr;
std::string* ConsistencySweep::csv_path_ = nullptr;
std::string* ConsistencySweep::bin_path_ = nullptr;
std::map<int64_t, std::pair<int64_t, int64_t>>* ConsistencySweep::truth_ =
    nullptr;

TEST_P(ConsistencySweep, CsvQueriesMatchGroundTruth) {
  const SweepCase& c = GetParam();
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("p", *csv_path_, spec_->ToSchema(),
                               CsvOptions(), c.pmap_stride));
  PlannerOptions options;
  options.access_path = c.access;
  options.shred_policy = c.policy;
  options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
  if (c.access == AccessPathKind::kJit &&
      !engine.Stats().jit_compiler_available()) {
    GTEST_SKIP() << "no compiler";
  }
  int64_t lit = *spec_->SelectivityLiteral(1, c.selectivity).AsInt64();
  auto [expected_count, expected_max] = Truth(lit);

  // Query 1 (builds pmap + caches), then query 2 (uses them) — both checked.
  ASSERT_OK_AND_ASSIGN(
      QueryResult count_result,
      session->Query("SELECT COUNT(*) FROM p WHERE col1 < " +
                         std::to_string(lit),
                     options));
  ASSERT_OK_AND_ASSIGN(Datum count, count_result.Scalar());
  EXPECT_EQ(count.int64_value(), expected_count);

  ASSERT_OK_AND_ASSIGN(
      QueryResult max_result,
      session->Query("SELECT MAX(col6) FROM p WHERE col1 < " +
                         std::to_string(lit),
                     options));
  if (expected_count > 0) {
    ASSERT_OK_AND_ASSIGN(Datum max, max_result.Scalar());
    EXPECT_EQ(*max.AsInt64(), expected_max);
  }
}

TEST_P(ConsistencySweep, BinaryQueriesMatchGroundTruth) {
  const SweepCase& c = GetParam();
  if (c.access == AccessPathKind::kExternalTable) {
    GTEST_SKIP() << "external tables are CSV-only";
  }
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterBinary("p", *bin_path_, spec_->ToSchema()));
  PlannerOptions options;
  options.access_path = c.access;
  options.shred_policy = c.policy;
  options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
  if (c.access == AccessPathKind::kJit &&
      !engine.Stats().jit_compiler_available()) {
    GTEST_SKIP() << "no compiler";
  }
  int64_t lit = *spec_->SelectivityLiteral(1, c.selectivity).AsInt64();
  auto [expected_count, expected_max] = Truth(lit);
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT COUNT(*) FROM p WHERE col1 < " +
                         std::to_string(lit),
                     options));
  ASSERT_OK_AND_ASSIGN(Datum count, result.Scalar());
  EXPECT_EQ(count.int64_value(), expected_count);
}

std::vector<SweepCase> MakeCases() {
  std::vector<SweepCase> cases;
  for (AccessPathKind access :
       {AccessPathKind::kInSitu, AccessPathKind::kJit,
        AccessPathKind::kLoaded, AccessPathKind::kExternalTable}) {
    for (ShredPolicy policy :
         {ShredPolicy::kFullColumns, ShredPolicy::kShreds,
          ShredPolicy::kMultiColumnShreds}) {
      for (int stride : {1, 4, 7}) {
        for (double sel : {0.0, 0.05, 0.5, 1.0}) {
          // Non-raw paths don't interact with stride; keep one stride each.
          if ((access == AccessPathKind::kLoaded ||
               access == AccessPathKind::kExternalTable) &&
              stride != 4) {
            continue;
          }
          cases.push_back(SweepCase{access, policy, stride, sel});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ConsistencySweep,
                         ::testing::ValuesIn(MakeCases()), CaseName);

// --- positional-map stride invariant ------------------------------------------

class PmapStrideSweep : public ::testing::TestWithParam<int> {};

TEST_P(PmapStrideSweep, JumpPlusIncrementalParseEqualsFullTokenize) {
  int stride = GetParam();
  ASSERT_OK_AND_ASSIGN(TempDir dir, TempDir::Create("raw_pmap_"));
  TableSpec spec = TableSpec::UniformInt32("s", 12, 400, 55);
  std::string path = dir.FilePath("s.csv");
  ASSERT_OK(WriteCsvFile(spec, path));

  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("s", path, spec.ToSchema(), CsvOptions(),
                               stride));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  // Query 1 builds the map; query 2 navigates via it for a far column.
  ASSERT_OK(
      session->Query("SELECT MAX(col0) FROM s WHERE col0 < 999999999", options)
          .status());
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(col11) FROM s WHERE col0 < 999999999",
                     options));
  TableDataSource source(spec);
  int64_t expected = INT64_MIN;
  for (int64_t r = 0; r < spec.rows; ++r) {
    expected = std::max(expected, *source.Value(r, 11).AsInt64());
  }
  ASSERT_OK_AND_ASSIGN(Datum max, result.Scalar());
  EXPECT_EQ(*max.AsInt64(), expected) << "stride " << stride;
}

INSTANTIATE_TEST_SUITE_P(Strides, PmapStrideSweep,
                         ::testing::Values(1, 2, 3, 5, 7, 11, 12));

// --- CSV dialect invariant -------------------------------------------------------

class DelimiterSweep : public ::testing::TestWithParam<char> {};

TEST_P(DelimiterSweep, EngineAnswersIndependentOfDelimiter) {
  char delim = GetParam();
  ASSERT_OK_AND_ASSIGN(TempDir dir, TempDir::Create("raw_delim_"));
  // Write the same small table with the parameterized delimiter.
  TableSpec spec = TableSpec::UniformInt32("d", 6, 500, 31);
  TableDataSource source(spec);
  std::string content;
  for (int64_t r = 0; r < spec.rows; ++r) {
    for (int c = 0; c < 6; ++c) {
      if (c > 0) content += delim;
      content += source.Value(r, c).ToString();
    }
    content += '\n';
  }
  std::string path = dir.FilePath("d.csv");
  ASSERT_OK(WriteStringToFile(path, content));

  CsvOptions options;
  options.delimiter = delim;
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("d", path, spec.ToSchema(), options, 2));
  PlannerOptions planner_options;
  planner_options.access_path = engine.Stats().jit_compiler_available()
                                    ? AccessPathKind::kJit
                                    : AccessPathKind::kInSitu;
  planner_options.jit_fusion = JitFusion::kOn;  // wait for the compiler
  int64_t lit = *spec.SelectivityLiteral(0, 0.4).AsInt64();
  int64_t expected_count = 0;
  int64_t expected_max = INT64_MIN;
  for (int64_t r = 0; r < spec.rows; ++r) {
    if (*source.Value(r, 0).AsInt64() >= lit) continue;
    ++expected_count;
    expected_max = std::max(expected_max, *source.Value(r, 4).AsInt64());
  }
  // Two queries: sequential scan then positional-map navigation.
  ASSERT_OK_AND_ASSIGN(
      QueryResult count,
      session->Query("SELECT COUNT(*) FROM d WHERE col0 < " +
                         std::to_string(lit),
                     planner_options));
  ASSERT_OK_AND_ASSIGN(Datum n, count.Scalar());
  EXPECT_EQ(n.int64_value(), expected_count);
  ASSERT_OK_AND_ASSIGN(
      QueryResult max,
      session->Query("SELECT MAX(col4) FROM d WHERE col0 < " +
                         std::to_string(lit),
                     planner_options));
  ASSERT_OK_AND_ASSIGN(Datum m, max.Scalar());
  EXPECT_EQ(*m.AsInt64(), expected_max);
}

INSTANTIATE_TEST_SUITE_P(Delimiters, DelimiterSweep,
                         ::testing::Values(',', ';', '\t', '|'));

// --- morsel-parallel scan invariant -----------------------------------------------

// For randomly generated schemas (width, types, row counts — including empty
// and single-row tables), a morsel-parallel scan must return exactly the
// single-threaded reference answer: same rows, same aggregates, same
// group-by output, same order.
TEST(ParallelConsistencyProperty, RandomSchemasParallelEqualsSerial) {
  ASSERT_OK_AND_ASSIGN(TempDir dir, TempDir::Create("raw_parprop_"));
  std::mt19937_64 rng(20260731);
  for (int iter = 0; iter < 100; ++iter) {
    const int num_columns = 1 + static_cast<int>(rng() % 10);
    const int64_t rows = static_cast<int64_t>(rng() % 700);  // 0 happens
    TableSpec spec = TableSpec::UniformInt32(
        "r", num_columns, rows, /*seed=*/static_cast<uint64_t>(rng()));
    for (int c = 0; c < num_columns; ++c) {
      switch (rng() % 4) {
        case 0:
          spec.columns[static_cast<size_t>(c)].type = DataType::kFloat64;
          break;
        case 1:
          spec.columns[static_cast<size_t>(c)].type = DataType::kInt64;
          break;
        default:
          break;  // keep int32
      }
    }
    std::string path = dir.FilePath("r" + std::to_string(iter) + ".csv");
    ASSERT_OK(WriteCsvFile(spec, path));

    const int agg_col = static_cast<int>(rng() % num_columns);
    const int group_col = static_cast<int>(rng() % num_columns);
    std::vector<std::string> queries = {
        "SELECT COUNT(*) FROM r",
        "SELECT MAX(col" + std::to_string(agg_col) + "), SUM(col" +
            std::to_string(agg_col) + ") FROM r",
        "SELECT col" + std::to_string(group_col) + ", COUNT(*) FROM r" +
            " GROUP BY col" + std::to_string(group_col),
    };
    const int threads = 2 + static_cast<int>(rng() % 7);  // 2..8
    for (const std::string& sql : queries) {
      auto run = [&](int t) -> StatusOr<QueryResult> {
        RawEngine engine;
        auto session = engine.OpenSession();
        RAW_RETURN_NOT_OK(engine.RegisterCsv(
            "r", path, spec.ToSchema(), CsvOptions(), /*pmap_stride=*/3));
        PlannerOptions options;
        options.access_path = AccessPathKind::kInSitu;
        options.num_threads = t;
        return session->Query(sql, options);
      };
      ASSERT_OK_AND_ASSIGN(QueryResult serial, run(1));
      ASSERT_OK_AND_ASSIGN(QueryResult parallel, run(threads));
      ASSERT_EQ(serial.num_rows(), parallel.num_rows())
          << "iter " << iter << ": " << sql;
      ASSERT_EQ(serial.num_columns(), parallel.num_columns());
      for (int64_t r = 0; r < serial.num_rows(); ++r) {
        for (int c = 0; c < serial.num_columns(); ++c) {
          ASSERT_OK_AND_ASSIGN(Datum e, serial.ValueAt(r, c));
          ASSERT_OK_AND_ASSIGN(Datum a, parallel.ValueAt(r, c));
          ASSERT_EQ(e.ToString(), a.ToString())
              << "iter " << iter << " threads " << threads << ": " << sql
              << " at (" << r << "," << c << ")";
        }
      }
    }
  }
}

// --- pipeline-fusion invariant ----------------------------------------------------

// For randomly generated schemas and single-table aggregate/projection
// queries, the fused JIT pipeline must return exactly the interpreted
// operator pipeline's answer — same rows, same aggregates, same order, at
// any thread count. Ineligible shapes silently fall back, so every query in
// this sweep is valid under both settings.
TEST(FusionConsistencyProperty, RandomQueriesFusedEqualsInterpreted) {
  ASSERT_OK_AND_ASSIGN(TempDir dir, TempDir::Create("raw_fuseprop_"));
  {
    RawEngine probe;
    if (!probe.Stats().jit_compiler_available()) GTEST_SKIP() << "no compiler";
  }
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 12; ++iter) {
    const int num_columns = 2 + static_cast<int>(rng() % 7);
    const int64_t rows = static_cast<int64_t>(rng() % 900);  // 0 happens
    TableSpec spec = TableSpec::UniformInt32(
        "q", num_columns, rows, /*seed=*/static_cast<uint64_t>(rng()));
    // col0 stays int32 so predicates always have a literal the SQL layer and
    // the fusion canonicalizer agree on; the rest mix types.
    for (int c = 1; c < num_columns; ++c) {
      switch (rng() % 4) {
        case 0:
          spec.columns[static_cast<size_t>(c)].type = DataType::kFloat64;
          break;
        case 1:
          spec.columns[static_cast<size_t>(c)].type = DataType::kInt64;
          break;
        default:
          break;  // keep int32
      }
    }
    const bool use_csv = rng() % 2 == 0;
    std::string path = dir.FilePath("q" + std::to_string(iter) +
                                    (use_csv ? ".csv" : ".bin"));
    ASSERT_OK(use_csv ? WriteCsvFile(spec, path)
                      : WriteBinaryFile(spec, path));

    RawEngine engine;
    auto session = engine.OpenSession();
    ASSERT_OK(use_csv ? engine.RegisterCsv("q", path, spec.ToSchema(),
                                           CsvOptions(), /*pmap_stride=*/3)
                      : engine.RegisterBinary("q", path, spec.ToSchema()));
    const int agg_col = static_cast<int>(rng() % num_columns);
    const std::string agg = "col" + std::to_string(agg_col);
    const int64_t lit =
        *spec.SelectivityLiteral(0, 0.1 + 0.8 * ((rng() % 100) / 100.0))
             .AsInt64();
    const std::string where = " FROM q WHERE col0 < " + std::to_string(lit);
    std::vector<std::string> queries = {
        "SELECT COUNT(*)" + where,
        "SELECT MAX(" + agg + "), MIN(" + agg + "), SUM(" + agg + ")" + where,
        "SELECT AVG(" + agg + ")" + where,
        "SELECT " + agg + where,
    };
    const int threads = 1 + static_cast<int>(rng() % 4);
    // Warm-up publishes the positional map the fused CSV plug-in needs.
    PlannerOptions interp;
    interp.jit_fusion = JitFusion::kOff;
    interp.num_threads = threads;
    ASSERT_TRUE(session->Query(queries[0], interp).ok());
    PlannerOptions fused = interp;
    fused.jit_fusion = JitFusion::kOn;
    for (const std::string& sql : queries) {
      ASSERT_OK_AND_ASSIGN(QueryResult f, session->Query(sql, fused));
      ASSERT_OK_AND_ASSIGN(QueryResult i, session->Query(sql, interp));
      ASSERT_EQ(f.num_rows(), i.num_rows()) << "iter " << iter << ": " << sql;
      ASSERT_EQ(f.num_columns(), i.num_columns());
      for (int64_t r = 0; r < f.num_rows(); ++r) {
        for (int c = 0; c < f.num_columns(); ++c) {
          ASSERT_OK_AND_ASSIGN(Datum fv, f.ValueAt(r, c));
          ASSERT_OK_AND_ASSIGN(Datum iv, i.ValueAt(r, c));
          ASSERT_EQ(fv.ToString(), iv.ToString())
              << "iter " << iter << " threads " << threads << ": " << sql
              << " at (" << r << "," << c << ")";
        }
      }
    }
  }
}

// --- REF cluster-size invariant ---------------------------------------------------

struct RefSweepCase {
  int cluster_events;
  int64_t pool_bytes;
};

class RefClusterSweep : public ::testing::TestWithParam<RefSweepCase> {};

TEST_P(RefClusterSweep, RoundTripAcrossClusterAndPoolSizes) {
  const RefSweepCase& c = GetParam();
  ASSERT_OK_AND_ASSIGN(TempDir dir, TempDir::Create("raw_refsweep_"));
  EventGenOptions options;
  options.num_events = 137;  // deliberately not a multiple of cluster size
  options.seed = 77;
  std::string path = dir.FilePath("e.ref");
  ASSERT_OK(WriteRefFile(path, options, c.cluster_events));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<RefReader> reader,
                       RefReader::Open(path, c.pool_bytes));
  ASSERT_EQ(reader->num_events(), options.num_events);

  // Every event must match a fresh generator stream, regardless of how the
  // data was clustered or how small the buffer pool is.
  EventGenerator gen(options);
  Event actual;
  for (int64_t i = 0; i < options.num_events; ++i) {
    Event expected = gen.Next();
    ASSERT_OK(reader->GetEntry(i, &actual));
    ASSERT_EQ(actual.event_id, expected.event_id) << i;
    ASSERT_EQ(actual.run_number, expected.run_number) << i;
    ASSERT_EQ(actual.muons.size(), expected.muons.size()) << i;
    ASSERT_EQ(actual.jets.size(), expected.jets.size()) << i;
    for (size_t m = 0; m < actual.muons.size(); ++m) {
      ASSERT_FLOAT_EQ(actual.muons[m].pt, expected.muons[m].pt);
      ASSERT_FLOAT_EQ(actual.muons[m].eta, expected.muons[m].eta);
    }
  }
  // Bulk range reads agree with per-event access.
  int id_branch = reader->BranchIndex(ref_branches::kEventId);
  std::vector<int64_t> ids(static_cast<size_t>(options.num_events));
  ASSERT_OK(reader->ReadRange(id_branch, 0, options.num_events, ids.data()));
  for (int64_t i = 0; i < options.num_events; ++i) {
    EXPECT_EQ(ids[static_cast<size_t>(i)], i);
  }
}

std::vector<RefSweepCase> RefCases() {
  std::vector<RefSweepCase> cases;
  for (int cluster : {1, 3, 16, 137, 1000}) {
    for (int64_t pool : {int64_t{1}, int64_t{4096}, int64_t{64ll << 20}}) {
      cases.push_back(RefSweepCase{cluster, pool});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ClustersAndPools, RefClusterSweep,
                         ::testing::ValuesIn(RefCases()));

}  // namespace
}  // namespace raw
