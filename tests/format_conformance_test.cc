// Format-driver conformance suite: every registrable backend (csv, bin,
// jsonl, csv.gz, ref) must produce identical results cold and warm, serial
// and morsel-parallel, through sequential scans, shredded late scans, and
// cross-format joins. This is the acceptance harness for the pluggable
// FormatDriver interface — a new driver that passes here composes with the
// whole engine.
#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mmap_file.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/catalog.h"
#include "engine/formats/builtin.h"
#include "engine/formats/driver_util.h"
#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "jit/template_cache.h"
#include "scan/shred_scan.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"
#include "zcsv/gzip_block.h"

namespace raw {
namespace {

/// MAX(agg_col) over rows with col(pred_col) < lit, straight from the
/// deterministic data source (ground truth independent of the engine).
int64_t ExpectedMax(const TableSpec& spec, int agg_col, int pred_col,
                    int64_t lit) {
  TableDataSource source(spec);
  int64_t best = INT64_MIN;
  for (int64_t r = 0; r < spec.rows; ++r) {
    if (*source.Value(r, pred_col).AsInt64() >= lit) continue;
    best = std::max(best, *source.Value(r, agg_col).AsInt64());
  }
  return best;
}

/// COUNT(*) of facts ⋈ dim on col0 with dim.col1 < lit.
int64_t ExpectedJoinCount(const TableSpec& facts, const TableSpec& dim,
                          int64_t lit) {
  TableDataSource dsrc(dim);
  std::unordered_map<int64_t, int64_t> matches;
  for (int64_t r = 0; r < dim.rows; ++r) {
    if (*dsrc.Value(r, 1).AsInt64() < lit) ++matches[*dsrc.Value(r, 0).AsInt64()];
  }
  TableDataSource fsrc(facts);
  int64_t count = 0;
  for (int64_t r = 0; r < facts.rows; ++r) {
    auto it = matches.find(*fsrc.Value(r, 0).AsInt64());
    if (it != matches.end()) count += it->second;
  }
  return count;
}

class FormatConformanceTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    facts_ = TableSpec::UniformInt32("f", 6, 1200, /*seed=*/31);
    facts_.columns[0].max_value = 60;  // join key domain
    dim_ = TableSpec::UniformInt32("d", 2, 80, /*seed=*/77);
    dim_.columns[0].max_value = 60;
    dim_.columns[1].max_value = 100;
    for (const TableSpec* spec : {&facts_, &dim_}) {
      const std::string base = Path(spec->name);
      ASSERT_OK(WriteCsvFile(*spec, base + ".csv"));
      ASSERT_OK(WriteBinaryFile(*spec, base + ".bin"));
      ASSERT_OK(WriteJsonlFile(*spec, base + ".jsonl"));
      // Small blocks so the compressed file splits into many gzip members.
      ASSERT_OK(WriteCsvGzTable(*spec, base + ".csv.gz",
                                /*block_bytes=*/4096));
    }
  }

  /// Registers one table per (spec, format) pair: f_csv, f_bin, f_jsonl,
  /// f_gz, d_csv, ...
  std::unique_ptr<RawEngine> NewEngine() {
    auto engine = std::make_unique<RawEngine>();
    for (const TableSpec* spec : {&facts_, &dim_}) {
      const std::string base = Path(spec->name);
      EXPECT_OK(engine->RegisterCsv(spec->name + "_csv", base + ".csv",
                                    spec->ToSchema()));
      EXPECT_OK(engine->RegisterBinary(spec->name + "_bin", base + ".bin",
                                       spec->ToSchema()));
      EXPECT_OK(engine->RegisterJsonl(spec->name + "_jsonl", base + ".jsonl",
                                      spec->ToSchema()));
      EXPECT_OK(engine->RegisterCsvGz(spec->name + "_gz", base + ".csv.gz",
                                      spec->ToSchema()));
    }
    return engine;
  }

  static int64_t Scalar(RawEngine& engine, const std::string& sql,
                        const PlannerOptions& options) {
    auto session = engine.OpenSession();
    auto result = session->Query(sql, options);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return INT64_MIN;
    auto datum = result->Scalar();
    EXPECT_TRUE(datum.ok()) << sql;
    return datum.ok() ? *datum->AsInt64() : INT64_MIN;
  }

  TableSpec facts_;
  TableSpec dim_;
};

const char* const kFactsTables[] = {"f_csv", "f_bin", "f_jsonl", "f_gz"};

TEST_F(FormatConformanceTest, ColdWarmSerialParallelAgreeOnEveryFormat) {
  const int64_t lit = 450000000;
  const int64_t expected = ExpectedMax(facts_, 3, 1, lit);
  for (const char* table : kFactsTables) {
    const std::string sql = std::string("SELECT MAX(col3) FROM ") + table +
                            " WHERE col1 < " + std::to_string(lit);
    for (int threads : {1, 4}) {
      auto engine = NewEngine();
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.num_threads = threads;
      // Cold: builds the positional map / field-offset map / block index.
      EXPECT_EQ(Scalar(*engine, sql, options), expected)
          << table << " cold x" << threads;
      // Warm: same engine, adaptive state now published.
      EXPECT_EQ(Scalar(*engine, sql, options), expected)
          << table << " warm x" << threads;
    }
  }
}

/// Whether `plan` late-scans `table` (in a filter cascade or after a join).
bool LateScans(const std::string& plan, const std::string& table) {
  return std::regex_search(
      plan, std::regex("\\[late-scan(\\([^)]*\\))? " + table + "[:\\]]"));
}

TEST_F(FormatConformanceTest, LateScanShredFetchAgreesOnEveryFormat) {
  // kShreds and kMultiColumnShreds put the aggregate column in a late scan,
  // exercising the fetchers of the positional CSV, binary and field-offset
  // JSONL drivers, cold and warm, serial and parallel. Compressed CSV serves
  // no late fetch (it would re-inflate members): its plans say so and read
  // full columns.
  const int64_t lit = 300000000;
  const int64_t expected = ExpectedMax(facts_, 5, 1, lit);
  for (ShredPolicy policy :
       {ShredPolicy::kShreds, ShredPolicy::kMultiColumnShreds}) {
    for (const char* table : kFactsTables) {
      const std::string sql = std::string("SELECT MAX(col5) FROM ") + table +
                              " WHERE col1 < " + std::to_string(lit);
      const bool gz = std::string(table) == "f_gz";
      for (int threads : {1, 4}) {
        auto engine = NewEngine();
        auto session = engine->OpenSession();
        PlannerOptions options;
        options.access_path = AccessPathKind::kInSitu;
        options.shred_policy = policy;
        options.num_threads = threads;
        for (const char* run : {"cold", "warm"}) {
          ASSERT_OK_AND_ASSIGN(QueryResult result,
                               session->Query(sql, options));
          ASSERT_OK_AND_ASSIGN(Datum value, result.Scalar());
          EXPECT_EQ(*value.AsInt64(), expected)
              << table << " " << run << " x" << threads;
          const std::string& plan = result.plan_description;
          if (gz) {
            EXPECT_NE(plan.find("[full columns f_gz: late fetches re-inflate "
                                "members]"),
                      std::string::npos)
                << plan;
            EXPECT_FALSE(LateScans(plan, table)) << plan;
          } else if (std::string(run) == "cold") {
            EXPECT_TRUE(LateScans(plan, table)) << plan;
          }
        }
      }
    }
  }

  // Late placement after a join demotes csv.gz columns to intermediate, on
  // the pipelined (probe) and the pipeline-breaking (build) side alike.
  const std::pair<const char*, const char*> joins[] = {
      {"f_csv", "d_csv"}, {"f_gz", "d_csv"}, {"d_csv", "f_gz"}};
  int64_t want = INT64_MIN;  // the CSV join's answer
  for (const auto& [probe, build] : joins) {
    const std::string facts = std::string(probe)[0] == 'f' ? probe : build;
    const std::string dim = std::string(probe)[0] == 'd' ? probe : build;
    const std::string sql = "SELECT MAX(" + facts + ".col4) FROM " + probe +
                            " JOIN " + build + " ON " + probe +
                            ".col0 = " + build + ".col0 WHERE " + dim +
                            ".col1 < 50";
    auto engine = NewEngine();
    auto session = engine->OpenSession();
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.join_placement = JoinProjectionPlacement::kLate;
    for (int threads : {1, 4}) {
      options.num_threads = threads;
      ASSERT_OK_AND_ASSIGN(QueryResult result, session->Query(sql, options));
      ASSERT_OK_AND_ASSIGN(Datum value, result.Scalar());
      if (want == INT64_MIN) want = *value.AsInt64();
      EXPECT_EQ(*value.AsInt64(), want) << sql << " x" << threads;
      const std::string& plan = result.plan_description;
      if (facts == "f_gz") {
        EXPECT_NE(plan.find("[late->intermediate f_gz: late fetches "
                            "re-inflate members]"),
                  std::string::npos)
            << plan;
        EXPECT_FALSE(LateScans(plan, "f_gz")) << plan;
      } else {
        EXPECT_TRUE(LateScans(plan, facts)) << plan;
      }
    }
  }
}

TEST_F(FormatConformanceTest, EveryFetcherMatchesAGatherFromTheFullScan) {
  // Each driver's late fetcher is its scan over explicit rows, so a fetch
  // must return exactly what a gather from the table's full scan returns —
  // in situ and through generated kernels, bare and chunked over 4 threads.
  EnsureBuiltinFormatDriversRegistered();
  {
    // The facts with every object's keys reversed: an unordered offset map.
    TableDataSource source(facts_);
    std::string text;
    for (int64_t r = 0; r < facts_.rows; ++r) {
      text += "{";
      for (int c = 5; c >= 0; --c) {
        text += "\"col" + std::to_string(c) + "\":" +
                std::to_string(*source.Value(r, c).AsInt64()) +
                (c > 0 ? "," : "}\n");
      }
    }
    ASSERT_OK(WriteStringToFile(Path("u.jsonl"), text));
  }
  EventGenOptions events;
  events.num_events = 300;
  ASSERT_OK(WriteRefFile(Path("e.ref"), events, /*cluster_rows=*/32));
  Catalog catalog;
  const std::string facts = Path("f");
  ASSERT_OK(catalog.RegisterCsv("f_csv", facts + ".csv", facts_.ToSchema()));
  ASSERT_OK(
      catalog.RegisterBinary("f_bin", facts + ".bin", facts_.ToSchema()));
  ASSERT_OK(
      catalog.RegisterJsonl("f_jsonl", facts + ".jsonl", facts_.ToSchema()));
  ASSERT_OK(
      catalog.RegisterJsonl("u_jsonl", Path("u.jsonl"), facts_.ToSchema()));
  ASSERT_OK(catalog.RegisterRef("ev", Path("e.ref")));
  JitTemplateCache jit;

  struct FetchCase {
    std::string table;
    std::vector<int> cols;
    bool kernel;
  };
  const FetchCase cases[] = {
      {"f_csv", {2, 5}, false},     {"f_csv", {2, 5}, true},
      {"f_bin", {2, 5}, false},     {"f_bin", {2, 5}, true},
      {"f_jsonl", {1, 4}, false},   {"u_jsonl", {1, 4}, false},
      {"ev_events", {0, 1}, false}, {"ev_events", {0, 1}, true},
      // Particle eventID is derived from the event branch: in situ only.
      {"ev_muons", {0, 1, 3}, false}, {"ev_muons", {1, 2}, true},
  };
  for (const FetchCase& fc : cases) {
    SCOPED_TRACE(fc.table + (fc.kernel ? " kernel" : " in situ"));
    if (fc.kernel && !jit.compiler_available()) continue;  // no compiler
    ASSERT_OK_AND_ASSIGN(std::vector<FormatScanContext> pinned,
                         catalog.Pin({fc.table}));
    FormatScanContext& tc = pinned[0];
    ASSERT_OK_AND_ASSIGN(
        const FormatDriver* driver,
        FormatRegistry::Global().Require(tc.entry->info.format));
    std::ostringstream desc;
    PlannerOptions scan_options;
    scan_options.access_path = AccessPathKind::kInSitu;
    tc.opts = &scan_options;
    tc.jit = &jit;
    tc.desc = &desc;
    const Schema qualified = QualifiedSchema(*tc.entry, fc.cols);

    // The reference, whose cold pass also builds the map fetches navigate.
    ASSERT_OK_AND_ASSIGN(OperatorPtr scan,
                         driver->BuildScan(tc, fc.cols, qualified));
    ASSERT_OK_AND_ASSIGN(ColumnBatch full, CollectAll(scan.get()));
    const int64_t n = full.num_rows();
    ASSERT_GT(n, 100);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(full.row_ids()[static_cast<size_t>(i)], i);
    }
    if (tc.entry->info.format == FileFormat::kJsonl) {
      ASSERT_NE(tc.pmap_view(), nullptr);
      EXPECT_EQ(tc.pmap_view()->keys_in_schema_order(), fc.table == "f_jsonl");
    }

    std::vector<RowSet> row_sets(5);  // empty, first, last, subset, all
    row_sets[1].ids = {0};
    row_sets[2].ids = {n - 1};
    Rng rng(11);
    for (int64_t i = 0; i < n; ++i) {
      if (rng.NextBelow(4) == 0) row_sets[3].ids.push_back(i);
      row_sets[4].ids.push_back(i);
    }
    PlannerOptions fetch_options = scan_options;
    if (fc.kernel) {
      fetch_options.access_path = AccessPathKind::kJit;
      fetch_options.jit_fusion = JitFusion::kOn;
    }
    tc.opts = &fetch_options;
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(RowFetcherPtr fetcher,
                           driver->BuildFetcher(tc, fc.cols, qualified));
      if (threads > 1) {
        fetcher = std::make_unique<ParallelRowFetcher>(
            std::move(fetcher), ThreadPool::Shared(), threads,
            /*min_chunk_rows=*/64);
      }
      EXPECT_EQ(fetcher->fields().ToString(), qualified.ToString());
      const JitCacheStats before = jit.Stats();
      for (const RowSet& rows : row_sets) {
        ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> got, fetcher->Fetch(rows));
        ASSERT_EQ(got.size(), fc.cols.size());
        for (size_t c = 0; c < got.size(); ++c) {
          const Column want = full.column(static_cast<int>(c))
                                  ->Gather(rows.ids.data(), rows.size());
          EXPECT_TRUE(got[c]->Equals(want))
              << "column " << c << ", " << rows.size() << " rows, x"
              << threads;
        }
      }
      if (fc.kernel) {
        const JitCacheStats after = jit.Stats();
        EXPECT_GT(after.hits + after.misses, before.hits + before.misses)
            << "the fetch ran no generated kernel";
      }
    }
  }
}

TEST_F(FormatConformanceTest, PlanDescriptionsNameEveryFormat) {
  const std::pair<const char*, const char*> tables[] = {
      {"f_csv", "csv"}, {"f_bin", "bin"}, {"f_jsonl", "jsonl"},
      {"f_gz", "csv.gz"},
  };
  auto engine = NewEngine();
  auto session = engine->OpenSession();
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.num_threads = 4;
  // Keep the scan in the plan on warm runs: no shred-cache shortcuts.
  options.use_shred_cache = false;
  options.populate_shred_cache = false;
  for (const auto& [table, format] : tables) {
    const std::string sql =
        std::string("SELECT MAX(col2) FROM ") + table + " WHERE col1 < 9999";
    ASSERT_OK_AND_ASSIGN(QueryResult cold, session->Query(sql, options));
    EXPECT_NE(cold.plan_description.find(std::string("[format=") + format +
                                         "]"),
              std::string::npos)
        << table << ": " << cold.plan_description;
    ASSERT_OK_AND_ASSIGN(QueryResult warm, session->Query(sql, options));
    EXPECT_NE(warm.plan_description.find(std::string("[format=") + format +
                                         "]"),
              std::string::npos)
        << table << ": " << warm.plan_description;
    if (std::string(format) == "csv.gz") {
      // Cold compressed scans are serial; warm ones go block-parallel
      // through the index built on the first pass — and say so.
      EXPECT_NE(cold.plan_description.find("cold"), std::string::npos)
          << cold.plan_description;
      EXPECT_NE(warm.plan_description.find("blocks="), std::string::npos)
          << warm.plan_description;
      EXPECT_NE(warm.plan_description.find("[parallel"), std::string::npos)
          << warm.plan_description;
    }
  }
}

TEST_F(FormatConformanceTest, CrossFormatJoinsAgree) {
  // Fig. 11-style heterogenous queries: every join below reads its two
  // sides through different format drivers (or the two new ones).
  const int64_t lit = 50;
  const int64_t expected = ExpectedJoinCount(facts_, dim_, lit);
  const std::pair<const char*, const char*> pairs[] = {
      {"f_csv", "d_bin"},   {"f_bin", "d_jsonl"}, {"f_jsonl", "d_gz"},
      {"f_gz", "d_csv"},    {"f_jsonl", "d_jsonl"}, {"f_gz", "d_gz"},
  };
  auto engine = NewEngine();
  for (const auto& [f, d] : pairs) {
    const std::string sql = std::string("SELECT COUNT(*) FROM ") + f +
                            " JOIN " + d + " ON " + f + ".col0 = " + d +
                            ".col0 WHERE " + d + ".col1 < " +
                            std::to_string(lit);
    for (int threads : {1, 4}) {
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.num_threads = threads;
      EXPECT_EQ(Scalar(*engine, sql, options), expected)
          << f << " x " << d << " threads=" << threads;
    }
  }
}

TEST_F(FormatConformanceTest, QuotedEdgeRowsSurviveCompression) {
  // Rows whose quoted strings embed delimiters and newlines: member cuts,
  // row counting, and block indexing must all be quote-aware.
  std::string text;
  for (int i = 0; i < 150; ++i) {
    text += std::to_string(i) + ",\"v,\n" + std::to_string(i) + "\"\n";
  }
  ASSERT_OK(WriteStringToFile(Path("q.csv"), text));
  ASSERT_OK(WriteCsvGzFile(Path("q.csv.gz"), text, /*block_bytes=*/256));
  const Schema schema{{"id", DataType::kInt32}, {"s", DataType::kString}};
  for (int threads : {1, 4}) {
    RawEngine engine;
    ASSERT_OK(engine.RegisterCsv("q_csv", Path("q.csv"), schema));
    ASSERT_OK(engine.RegisterCsvGz("q_gz", Path("q.csv.gz"), schema));
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.num_threads = threads;
    for (const char* table : {"q_csv", "q_gz"}) {
      const std::string from = std::string(" FROM ") + table;
      EXPECT_EQ(Scalar(engine, "SELECT COUNT(*)" + from, options), 150)
          << table << " cold";
      EXPECT_EQ(Scalar(engine,
                       "SELECT MAX(id)" + from + " WHERE id < 100", options),
                99)
          << table << " warm";
    }
  }
}

TEST_F(FormatConformanceTest, EmptyFilesScanToZeroRows) {
  ASSERT_OK(WriteStringToFile(Path("e.csv"), ""));
  ASSERT_OK(WriteStringToFile(Path("e.jsonl"), ""));
  ASSERT_OK(WriteCsvGzFile(Path("e.csv.gz"), ""));
  const Schema schema{{"a", DataType::kInt32}};
  RawEngine engine;
  ASSERT_OK(engine.RegisterCsv("e_csv", Path("e.csv"), schema));
  ASSERT_OK(engine.RegisterJsonl("e_jsonl", Path("e.jsonl"), schema));
  ASSERT_OK(engine.RegisterCsvGz("e_gz", Path("e.csv.gz"), schema));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  for (const char* table : {"e_csv", "e_jsonl", "e_gz"}) {
    EXPECT_EQ(Scalar(engine, std::string("SELECT COUNT(*) FROM ") + table,
                     options),
              0)
        << table;
  }
}

TEST_F(FormatConformanceTest, RefScansAreConsistentAcrossRunsAndThreads) {
  EventGenOptions ev;
  ev.num_events = 240;
  ASSERT_OK(WriteRefFile(Path("e.ref"), ev, /*cluster_rows=*/32));
  for (int threads : {1, 4}) {
    RawEngine engine;
    ASSERT_OK(engine.RegisterRef("ev", Path("e.ref")));
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.num_threads = threads;
    EXPECT_EQ(Scalar(engine, "SELECT COUNT(*) FROM ev_events", options), 240)
        << "cold x" << threads;
    EXPECT_EQ(Scalar(engine, "SELECT COUNT(*) FROM ev_events", options), 240)
        << "warm x" << threads;
  }
}

TEST_F(FormatConformanceTest, TwoSessionsOfOneEngineAgree) {
  const int64_t lit = 350000000;
  const int64_t expected = ExpectedMax(facts_, 2, 1, lit);
  const std::string sql =
      "SELECT MAX(col2) FROM f_jsonl WHERE col1 < " + std::to_string(lit);
  auto engine = NewEngine();
  // The first session runs the query cold.
  auto first = engine->OpenSession();
  ASSERT_OK_AND_ASSIGN(QueryResult cold, first->Query(sql));
  ASSERT_OK_AND_ASSIGN(Datum cold_value, cold.Scalar());
  EXPECT_EQ(*cold_value.AsInt64(), expected);
  // A second session sees the same answer over the shared adaptive state.
  auto second = engine->OpenSession();
  ASSERT_OK_AND_ASSIGN(QueryResult warm, second->Query(sql));
  ASSERT_OK_AND_ASSIGN(Datum warm_value, warm.Scalar());
  EXPECT_EQ(*warm_value.AsInt64(), expected);
  EXPECT_GE(engine->Stats().queries_executed, 2);
}

}  // namespace
}  // namespace raw
