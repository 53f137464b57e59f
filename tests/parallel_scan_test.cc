// Morsel-parallel scan pipeline: determinism across thread counts (parallel
// plans must return byte-identical answers to the serial engine over CSV,
// binary, and JIT access paths, cold and warm), morsel-boundary edge cases
// (quoted newlines, missing trailing newline, empty files), the positional
// maps stitched from per-morsel partials, and the mergeable group-by
// partials. Runs under the `concurrency` ctest label (TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <random>

#include "columnar/hash_group_by.h"
#include "columnar/hash_join.h"
#include "columnar/in_memory_table.h"
#include "common/mmap_file.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "jsonl/jsonl_scan.h"
#include "scan/insitu_csv_scan.h"
#include "scan/morsel.h"
#include "scan/shred_scan.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

// =============================================================================
// Morsel splitter
// =============================================================================

TEST(MorselSplitterTest, ByteRangesAreNewlineAlignedAndCoverTheFile) {
  std::string csv;
  for (int i = 0; i < 3000; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i * 7) + "\n";
  }
  std::vector<ScanRange> morsels =
      SplitCsvByteRanges(csv.data(), csv.size(), CsvOptions(), 8, 1024);
  ASSERT_GT(morsels.size(), 1u);
  int64_t expect_begin = 0;
  for (const ScanRange& m : morsels) {
    EXPECT_EQ(m.unit, ScanRange::Unit::kBytes);
    EXPECT_EQ(m.begin, expect_begin);  // contiguous, gap-free
    ASSERT_GT(m.end, m.begin);
    // Every boundary except the file end sits one past a newline.
    if (m.end < static_cast<int64_t>(csv.size())) {
      EXPECT_EQ(csv[static_cast<size_t>(m.end) - 1], '\n');
    }
    expect_begin = m.end;
  }
  EXPECT_EQ(morsels.back().end, static_cast<int64_t>(csv.size()));
}

TEST(MorselSplitterTest, LastPartialMorselWithoutTrailingNewline) {
  std::string csv = "1,2\n3,4\n5,6";  // no trailing newline
  std::vector<ScanRange> morsels =
      SplitCsvByteRanges(csv.data(), csv.size(), CsvOptions(), 4, 4);
  ASSERT_FALSE(morsels.empty());
  EXPECT_EQ(morsels.back().end, static_cast<int64_t>(csv.size()));
  int64_t covered = 0;
  for (const ScanRange& m : morsels) covered += m.count();
  EXPECT_EQ(covered, static_cast<int64_t>(csv.size()));
}

TEST(MorselSplitterTest, EmptyFileYieldsNoMorsels) {
  std::string csv;
  EXPECT_TRUE(
      SplitCsvByteRanges(csv.data(), 0, CsvOptions(), 8, 4096).empty());
}

TEST(MorselSplitterTest, HeaderOnlyFileYieldsNoMorsels) {
  std::string csv = "a,b,c\n";
  CsvOptions options;
  options.has_header = true;
  EXPECT_TRUE(
      SplitCsvByteRanges(csv.data(), csv.size(), options, 8, 4).empty());
}

TEST(MorselSplitterTest, HeaderIsExcludedFromTheFirstMorsel) {
  std::string csv = "a,b\n";
  const int64_t header = static_cast<int64_t>(csv.size());
  for (int i = 0; i < 100; ++i) csv += "1,2\n";
  CsvOptions options;
  options.has_header = true;
  std::vector<ScanRange> morsels =
      SplitCsvByteRanges(csv.data(), csv.size(), options, 4, 32);
  ASSERT_FALSE(morsels.empty());
  EXPECT_EQ(morsels.front().begin, header);
}

TEST(MorselSplitterTest, QuotedContentFallsBackToOneMorsel) {
  // A quoted field hiding a newline: newline-probing boundaries would split
  // mid-row, so the splitter must refuse to split quoted files.
  std::string csv;
  for (int i = 0; i < 2000; ++i) csv += "1,2,3\n";
  csv += "4,\"line1\nline2\",6\n";
  for (int i = 0; i < 2000; ++i) csv += "7,8,9\n";
  std::vector<ScanRange> morsels =
      SplitCsvByteRanges(csv.data(), csv.size(), CsvOptions(), 8, 64);
  ASSERT_EQ(morsels.size(), 1u);
  EXPECT_EQ(morsels[0].begin, 0);
  EXPECT_EQ(morsels[0].end, static_cast<int64_t>(csv.size()));
}

TEST(MorselSplitterTest, RefRowRangesAlignToClusterBoundaries) {
  RefBranch branch;
  branch.name = "event/id";
  int64_t first = 0;
  for (int c = 0; c < 24; ++c) {
    RefCluster cluster;
    cluster.first_value = first;
    cluster.num_values = 128;
    first += cluster.num_values;
    branch.clusters.push_back(cluster);
  }
  std::vector<ScanRange> morsels =
      SplitRefRowRanges(branch, /*target_morsels=*/16, /*min_rows=*/256);
  ASSERT_GT(morsels.size(), 1u);
  int64_t next = 0;
  for (const ScanRange& m : morsels) {
    EXPECT_EQ(m.unit, ScanRange::Unit::kRows);
    EXPECT_EQ(m.begin, next);  // contiguous, gap-free
    EXPECT_GT(m.count(), 0);
    // Every boundary sits on a cluster boundary (multiples of 128 here).
    EXPECT_EQ(m.begin % 128, 0);
    next += m.count();
  }
  EXPECT_EQ(next, branch.num_values());

  // A single-cluster branch cannot split.
  RefBranch one;
  one.clusters.push_back(RefCluster{0, 0, 0, 1000});
  EXPECT_EQ(SplitRefRowRanges(one, 16, 1).size(), 1u);
  // No clusters => no morsels.
  EXPECT_TRUE(SplitRefRowRanges(RefBranch(), 8, 1).empty());
}

TEST(MorselSplitterTest, RowRangesPartitionExactly) {
  std::vector<ScanRange> morsels = SplitRowRanges(10001, 8, 16);
  ASSERT_GT(morsels.size(), 1u);
  int64_t next = 0;
  for (const ScanRange& m : morsels) {
    EXPECT_EQ(m.begin, next);
    EXPECT_GT(m.count(), 0);
    next += m.count();
  }
  EXPECT_EQ(next, 10001);
  EXPECT_TRUE(SplitRowRanges(0, 8, 16).empty());
}

// =============================================================================
// Engine determinism across thread counts
// =============================================================================

void ExpectSameTable(const QueryResult& expected, const QueryResult& actual,
                     const std::string& what) {
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << what;
  ASSERT_EQ(expected.num_columns(), actual.num_columns()) << what;
  for (int64_t r = 0; r < expected.num_rows(); ++r) {
    for (int c = 0; c < expected.num_columns(); ++c) {
      ASSERT_OK_AND_ASSIGN(Datum e, expected.ValueAt(r, c));
      ASSERT_OK_AND_ASSIGN(Datum a, actual.ValueAt(r, c));
      ASSERT_EQ(e.ToString(), a.ToString())
          << what << " at (" << r << "," << c << ")";
    }
  }
}

class ParallelScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir(std::move(*TempDir::Create("raw_par_")));
    spec_ = new TableSpec(TableSpec::UniformInt32("t", 8, 5000, 1234));
    spec_->columns[5].type = DataType::kFloat64;
    csv_path_ = new std::string(dir_->FilePath("t.csv"));
    bin_path_ = new std::string(dir_->FilePath("t.bin"));
    ASSERT_OK(WriteCsvFile(*spec_, *csv_path_));
    ASSERT_OK(WriteBinaryFile(*spec_, *bin_path_));
  }
  static void TearDownTestSuite() {
    delete bin_path_;
    delete csv_path_;
    delete spec_;
    delete dir_;
  }

  static std::vector<std::string> Queries() {
    int64_t lit = *spec_->SelectivityLiteral(0, 0.4).AsInt64();
    return {
        "SELECT COUNT(*) FROM t",
        "SELECT MAX(col2), MIN(col3), SUM(col5) FROM t WHERE col0 < " +
            std::to_string(lit),
        "SELECT col1, col4 FROM t WHERE col0 < " + std::to_string(lit),
    };
  }

  /// Runs the query list twice (cold scan building the positional map, then
  /// the warm positional re-scan) on a fresh engine with `threads`.
  static std::vector<QueryResult> RunAll(bool csv, AccessPathKind access,
                                         int threads) {
    RawEngine engine;
    auto session = engine.OpenSession();
    if (csv) {
      EXPECT_OK(engine.RegisterCsv("t", *csv_path_, spec_->ToSchema(),
                                   CsvOptions(), /*pmap_stride=*/3));
    } else {
      EXPECT_OK(engine.RegisterBinary("t", *bin_path_, spec_->ToSchema()));
    }
    PlannerOptions options;
    options.access_path = access;
    options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
    options.num_threads = threads;
    std::vector<QueryResult> results;
    for (int round = 0; round < 2; ++round) {
      for (const std::string& sql : Queries()) {
        auto result = session->Query(sql, options);
        EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        if (result.ok()) results.push_back(std::move(result).value());
      }
    }
    return results;
  }

  static void CheckDeterminism(bool csv, AccessPathKind access) {
    std::vector<QueryResult> reference = RunAll(csv, access, /*threads=*/1);
    for (int threads : {2, 8}) {
      std::vector<QueryResult> parallel = RunAll(csv, access, threads);
      ASSERT_EQ(reference.size(), parallel.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ExpectSameTable(reference[i], parallel[i],
                        "threads=" + std::to_string(threads) + " query#" +
                            std::to_string(i));
      }
    }
  }

  static TempDir* dir_;
  static TableSpec* spec_;
  static std::string* csv_path_;
  static std::string* bin_path_;
};

TempDir* ParallelScanTest::dir_ = nullptr;
TableSpec* ParallelScanTest::spec_ = nullptr;
std::string* ParallelScanTest::csv_path_ = nullptr;
std::string* ParallelScanTest::bin_path_ = nullptr;

TEST_F(ParallelScanTest, CsvInsituDeterministicAcrossThreadCounts) {
  CheckDeterminism(/*csv=*/true, AccessPathKind::kInSitu);
}

TEST_F(ParallelScanTest, BinaryInsituDeterministicAcrossThreadCounts) {
  CheckDeterminism(/*csv=*/false, AccessPathKind::kInSitu);
}

TEST_F(ParallelScanTest, CsvJitDeterministicAcrossThreadCounts) {
  RawEngine probe;
  if (!probe.Stats().jit_compiler_available()) GTEST_SKIP() << "no compiler";
  CheckDeterminism(/*csv=*/true, AccessPathKind::kJit);
}

TEST_F(ParallelScanTest, BinaryJitDeterministicAcrossThreadCounts) {
  RawEngine probe;
  if (!probe.Stats().jit_compiler_available()) GTEST_SKIP() << "no compiler";
  CheckDeterminism(/*csv=*/false, AccessPathKind::kJit);
}

TEST_F(ParallelScanTest, ParallelPositionalMapMatchesSerialMap) {
  auto scan_all = [&](int threads) {
    RawEngine engine;
    auto session = engine.OpenSession();
    EXPECT_OK(engine.RegisterCsv("t", *csv_path_, spec_->ToSchema(),
                                 CsvOptions(), /*pmap_stride=*/3));
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.num_threads = threads;
    EXPECT_OK(session->Query("SELECT COUNT(*) FROM t", options).status());
    std::shared_ptr<const PositionalMap> pmap =
        *engine.PositionalMapSnapshot("t");
    EXPECT_NE(pmap, nullptr);
    EXPECT_OK(pmap->CheckConsistency());
    std::vector<uint64_t> flat;
    for (int64_t r = 0; r < pmap->num_rows(); ++r) {
      flat.push_back(pmap->RowStart(r));
      for (int s = 0; s < pmap->num_tracked(); ++s) {
        flat.push_back(pmap->Position(r, s));
      }
    }
    return flat;
  };
  std::vector<uint64_t> serial = scan_all(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, scan_all(2));
  EXPECT_EQ(serial, scan_all(8));
}

TEST_F(ParallelScanTest, RowRangeMorselsOfWarmScansMatchTheSerialScan) {
  // Interpreted warm positional scans, CSV and JSONL, take one row range per
  // morsel. At any thread count, and with a short last morsel, the morsels
  // stitched in order must equal the serial scan, row ids included.
  const std::string jsonl_path = dir_->FilePath("t.jsonl");
  ASSERT_OK(WriteJsonlFile(*spec_, jsonl_path));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> csv,
                       MmapFile::Open(*csv_path_));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> jsonl,
                       MmapFile::Open(jsonl_path));
  const Schema schema = spec_->ToSchema();
  const std::vector<int> outputs = {2, 5, 7};

  auto drain = [](Operator* op) {
    std::vector<std::string> rows;
    EXPECT_OK(op->Open());
    while (true) {
      auto batch = op->Next();
      EXPECT_OK(batch.status());
      if (!batch.ok() || batch->end_of_stream()) break;
      for (int64_t r = 0; r < batch->num_rows(); ++r) {
        std::string row =
            std::to_string(batch->row_ids()[static_cast<size_t>(r)]);
        for (int c = 0; c < batch->num_columns(); ++c) {
          row += '|';
          row += batch->column(c)->GetDatum(r).ToString();
        }
        rows.push_back(std::move(row));
      }
    }
    return rows;
  };

  PositionalMap csv_map = PositionalMap::WithStride(8, 3);
  PositionalMap jsonl_map = PositionalMap::WithStride(8, 3);
  {
    CsvScanSpec c;
    c.file_schema = schema;
    c.outputs = {0};
    c.build_pmap = &csv_map;
    InsituCsvScanOperator csv_build(csv.get(), std::move(c));
    drain(&csv_build);
    JsonlScanSpec j;
    j.file_schema = schema;
    j.outputs = {0};
    j.build_pmap = &jsonl_map;
    JsonlScanOperator jsonl_build(jsonl.get(), std::move(j));
    drain(&jsonl_build);
  }
  ASSERT_EQ(csv_map.num_rows(), jsonl_map.num_rows());

  auto make = [&](bool is_csv, const ScanRange& rows) -> OperatorPtr {
    if (is_csv) {
      CsvScanSpec c;
      c.file_schema = schema;
      c.outputs = outputs;
      c.use_pmap = &csv_map;
      c.anchor_column = 0;
      c.range = rows;
      return std::make_unique<InsituCsvScanOperator>(csv.get(), std::move(c));
    }
    JsonlScanSpec j;
    j.file_schema = schema;
    j.outputs = outputs;
    j.use_pmap = &jsonl_map;
    j.range = rows;
    return std::make_unique<JsonlScanOperator>(jsonl.get(), std::move(j));
  };

  const int64_t n = csv_map.num_rows();
  std::vector<ScanRange> morsels;
  for (int64_t b = 0; b < n; b += 700) {
    morsels.push_back(ScanRange::Rows(b, std::min<int64_t>(700, n - b)));
  }
  ASSERT_LT(morsels.back().count(), 700);  // a short last morsel
  for (bool is_csv : {true, false}) {
    SCOPED_TRACE(is_csv ? "csv" : "jsonl");
    OperatorPtr serial_op = make(is_csv, ScanRange::Whole());
    const std::vector<std::string> serial = drain(serial_op.get());
    ASSERT_EQ(static_cast<int64_t>(serial.size()), n);
    for (int threads : {1, 2, 4}) {
      std::vector<OperatorPtr> children;
      for (const ScanRange& m : morsels) children.push_back(make(is_csv, m));
      ParallelTableScanOperator::Options popts;
      popts.num_threads = threads;
      ParallelTableScanOperator parallel(serial_op->output_schema(),
                                         std::move(children),
                                         std::move(popts));
      EXPECT_EQ(drain(&parallel), serial) << "threads=" << threads;
    }
  }
}

TEST_F(ParallelScanTest, GroupByDeterministicAcrossThreadCounts) {
  // Low-cardinality keys so every partial sees every group.
  std::string path = dir_->FilePath("g.csv");
  std::string csv;
  for (int i = 0; i < 4000; ++i) {
    csv += std::to_string(i % 7) + "," + std::to_string(i) + "," +
           std::to_string(i * 0.25) + "\n";
  }
  ASSERT_OK(WriteStringToFile(path, csv));
  Schema schema{{"k", DataType::kInt64},
                {"v", DataType::kInt64},
                {"f", DataType::kFloat64}};
  auto run = [&](int threads) {
    RawEngine engine;
    auto session = engine.OpenSession();
    EXPECT_OK(engine.RegisterCsv("g", path, schema));
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.num_threads = threads;
    auto result = session->Query(
        "SELECT k, COUNT(*), SUM(v), SUM(f), AVG(f) FROM g GROUP BY k",
        options);
    EXPECT_OK(result.status());
    return std::move(result).value();
  };
  QueryResult serial = run(1);
  ASSERT_EQ(serial.num_rows(), 7);
  ExpectSameTable(serial, run(2), "group-by threads=2");
  ExpectSameTable(serial, run(8), "group-by threads=8");
}

TEST_F(ParallelScanTest, EmptyCsvFileAllThreadCounts) {
  std::string path = dir_->FilePath("empty.csv");
  ASSERT_OK(WriteStringToFile(path, ""));
  Schema schema{{"a", DataType::kInt64}, {"b", DataType::kInt64}};
  for (int threads : {1, 8}) {
    RawEngine engine;
    auto session = engine.OpenSession();
    ASSERT_OK(engine.RegisterCsv("e", path, schema));
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(QueryResult result,
                         session->Query("SELECT COUNT(*) FROM e", options));
    ASSERT_OK_AND_ASSIGN(Datum count, result.Scalar());
    EXPECT_EQ(count.int64_value(), 0) << "threads=" << threads;
  }
}

TEST_F(ParallelScanTest, MissingTrailingNewlineAllThreadCounts) {
  std::string path = dir_->FilePath("partial.csv");
  std::string csv;
  for (int i = 0; i < 3000; ++i) csv += std::to_string(i) + ",1\n";
  csv += "9999,1";  // final row unterminated: the last morsel is partial
  ASSERT_OK(WriteStringToFile(path, csv));
  Schema schema{{"a", DataType::kInt64}, {"b", DataType::kInt64}};
  auto run = [&](int threads) {
    RawEngine engine;
    auto session = engine.OpenSession();
    EXPECT_OK(engine.RegisterCsv("p", path, schema));
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.num_threads = threads;
    auto result = session->Query("SELECT COUNT(*), MAX(a) FROM p", options);
    EXPECT_OK(result.status());
    return std::move(result).value();
  };
  QueryResult serial = run(1);
  ASSERT_OK_AND_ASSIGN(Datum count, serial.ValueAt(0, 0));
  EXPECT_EQ(count.int64_value(), 3001);
  ExpectSameTable(serial, run(2), "partial-newline threads=2");
  ExpectSameTable(serial, run(8), "partial-newline threads=8");
}

// =============================================================================
// REF parallel scans: thread-count determinism + cluster-cache equivalence
// =============================================================================

class RefParallelScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir(std::move(*TempDir::Create("raw_refpar_")));
    ref_path_ = new std::string(dir_->FilePath("e.ref"));
    EventGenOptions options;
    options.num_events = 3000;
    // Small clusters so the cluster-aligned splitter yields real morsels.
    ASSERT_OK(WriteRefFile(*ref_path_, options, /*cluster_events=*/128));
  }
  static void TearDownTestSuite() {
    delete ref_path_;
    delete dir_;
  }

  /// Event table, particle tables, group-by, and the derived-eventID path
  /// (which must stay on the interpreted scan even under kJit).
  static std::vector<std::string> Queries() {
    return {
        "SELECT COUNT(*) FROM a_events WHERE runNumber > 2010",
        "SELECT MAX(eventID), MIN(runNumber) FROM a_events",
        "SELECT runNumber, COUNT(*) FROM a_events GROUP BY runNumber",
        "SELECT MAX(pt), MIN(eta) FROM a_muons WHERE pt > 5.0",
        "SELECT COUNT(*) FROM a_jets WHERE eta < 1.0",
        "SELECT MAX(eventID) FROM a_muons WHERE pt > 10.0",
    };
  }

  /// Runs the query list twice on one engine — cold (decoding every
  /// cluster) then warm (cluster pool + shred cache hits) — with `threads`.
  static std::vector<QueryResult> RunAll(AccessPathKind access, int threads) {
    RawEngine engine;
    auto session = engine.OpenSession();
    EXPECT_OK(engine.RegisterRef("a", *ref_path_));
    PlannerOptions options;
    options.access_path = access;
    options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
    options.num_threads = threads;
    std::vector<QueryResult> results;
    for (int round = 0; round < 2; ++round) {
      for (const std::string& sql : Queries()) {
        auto result = session->Query(sql, options);
        EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        if (result.ok()) results.push_back(std::move(result).value());
      }
    }
    return results;
  }

  static void CheckDeterminism(AccessPathKind access) {
    std::vector<QueryResult> reference = RunAll(access, /*threads=*/1);
    for (int threads : {2, 4, 8}) {
      std::vector<QueryResult> parallel = RunAll(access, threads);
      ASSERT_EQ(reference.size(), parallel.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ExpectSameTable(reference[i], parallel[i],
                        "threads=" + std::to_string(threads) + " query#" +
                            std::to_string(i));
      }
    }
  }

  static TempDir* dir_;
  static std::string* ref_path_;
};

TempDir* RefParallelScanTest::dir_ = nullptr;
std::string* RefParallelScanTest::ref_path_ = nullptr;

TEST_F(RefParallelScanTest, InsituDeterministicAcrossThreadCounts) {
  CheckDeterminism(AccessPathKind::kInSitu);
}

TEST_F(RefParallelScanTest, JitDeterministicAcrossThreadCounts) {
  RawEngine probe;
  if (!probe.Stats().jit_compiler_available()) GTEST_SKIP() << "no compiler";
  CheckDeterminism(AccessPathKind::kJit);
}

TEST_F(RefParallelScanTest, ParallelPlanDescriptionConfirmsRefMorsels) {
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterRef("a", *ref_path_));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.num_threads = 4;
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session->Query("SELECT MAX(eventID) FROM a_events", options));
  EXPECT_NE(result.plan_description.find("[ref-scan"), std::string::npos)
      << result.plan_description;
  EXPECT_NE(result.plan_description.find("[parallel x4"), std::string::npos)
      << result.plan_description;
}

TEST_F(RefParallelScanTest, ClusterCacheEquivalentAcrossThreadCounts) {
  // The REF analogue of the positional-map equivalence check: after the same
  // full scan, the cluster pool must hold the same clusters (same entry
  // count, same decoded bytes) no matter how many threads scanned — racing
  // decoders dedup on Put, morsels align to cluster boundaries.
  auto run = [&](int threads) {
    RawEngine engine;
    auto session = engine.OpenSession();
    EXPECT_OK(engine.RegisterRef("a", *ref_path_));
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.shred_policy = ShredPolicy::kFullColumns;
    options.num_threads = threads;
    EXPECT_OK(
        session->Query("SELECT MAX(pt), MIN(eta) FROM a_muons", options)
            .status());
    return engine.Stats().ref_pool;
  };
  ClusterPoolStats serial = run(1);
  EXPECT_GT(serial.entries, 0);
  EXPECT_GT(serial.bytes, 0);
  EXPECT_GT(serial.misses, 0);
  for (int threads : {2, 8}) {
    ClusterPoolStats parallel = run(threads);
    EXPECT_EQ(parallel.entries, serial.entries) << "threads=" << threads;
    EXPECT_EQ(parallel.bytes, serial.bytes) << "threads=" << threads;
  }
}

TEST_F(RefParallelScanTest, WarmRunHitsClusterPool) {
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterRef("a", *ref_path_));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.shred_policy = ShredPolicy::kFullColumns;
  options.num_threads = 4;
  options.use_shred_cache = false;  // force raw REF reads on the warm run
  options.populate_shred_cache = false;
  const std::string sql = "SELECT MAX(pt) FROM a_jets";
  ASSERT_OK(session->Query(sql, options).status());
  ClusterPoolStats cold = engine.Stats().ref_pool;
  ASSERT_OK(session->Query(sql, options).status());
  ClusterPoolStats warm = engine.Stats().ref_pool;
  EXPECT_EQ(warm.misses, cold.misses);  // fully served from the pool
  EXPECT_GT(warm.hits, cold.hits);
  // ResetAdaptiveState drops the cluster cache: the next run decodes again.
  engine.ResetAdaptiveState();
  EXPECT_EQ(engine.Stats().ref_pool.bytes, 0);
  ASSERT_OK(session->Query(sql, options).status());
  EXPECT_GT(engine.Stats().ref_pool.misses, warm.misses);
}

// =============================================================================
// Parallel late-scan row fetchers
// =============================================================================

TEST_F(ParallelScanTest, ParallelRowFetcherMatchesSerialFetch) {
  // Chunked parallel fetch must reassemble exactly the serial fetch, for
  // contiguous, strided and small (serial short-circuit) row sets.
  ASSERT_OK_AND_ASSIGN(BinaryLayout layout,
                       BinaryLayout::Create(spec_->ToSchema()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BinaryReader> reader,
                       BinaryReader::Open(*bin_path_, std::move(layout)));
  const int64_t n = reader->num_rows();
  ASSERT_GT(n, 1000);

  auto make_fetcher = [&]() {
    BinScanSpec spec;
    spec.outputs = {1, 4};
    return std::make_unique<InsituRowFetcher>(reader.get(), std::move(spec));
  };

  std::vector<RowSet> requests(3);
  for (int64_t i = 0; i < n; ++i) requests[0].ids.push_back(i);
  for (int64_t i = 0; i < n; i += 3) requests[1].ids.push_back(i);
  for (int64_t i = n - 10; i < n; ++i) requests[2].ids.push_back(i);

  for (size_t r = 0; r < requests.size(); ++r) {
    auto serial = make_fetcher();
    ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> expect,
                         serial->Fetch(requests[r]));
    for (int threads : {2, 8}) {
      ParallelRowFetcher parallel(make_fetcher(), ThreadPool::Shared(),
                                  threads, /*min_chunk_rows=*/64);
      ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> actual,
                           parallel.Fetch(requests[r]));
      ASSERT_EQ(actual.size(), expect.size());
      for (size_t c = 0; c < expect.size(); ++c) {
        ASSERT_EQ(actual[c]->length(), expect[c]->length())
            << "request#" << r << " threads=" << threads;
        for (int64_t i = 0; i < expect[c]->length(); ++i) {
          ASSERT_EQ(actual[c]->GetDatum(i).ToString(),
                    expect[c]->GetDatum(i).ToString())
              << "request#" << r << " threads=" << threads << " (" << c
              << "," << i << ")";
        }
      }
    }
  }
}

TEST_F(ParallelScanTest, LateScanUsesParallelFetchInPlan) {
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterBinary("t", *bin_path_, spec_->ToSchema()));
  PlannerOptions serial_opts;
  serial_opts.access_path = AccessPathKind::kInSitu;
  serial_opts.num_threads = 1;
  // Keep the raw late-scan path live on both runs (no cache-served shreds).
  serial_opts.use_shred_cache = false;
  serial_opts.populate_shred_cache = false;
  PlannerOptions par_opts = serial_opts;
  par_opts.num_threads = 4;
  // Everything passes the filter, so the late scan fetches full batches —
  // big enough row sets to exercise the chunked path.
  const std::string sql = "SELECT col1, col4 FROM t WHERE col0 >= 0";
  ASSERT_OK_AND_ASSIGN(QueryResult expect, session->Query(sql, serial_opts));
  ASSERT_OK_AND_ASSIGN(QueryResult actual, session->Query(sql, par_opts));
  ExpectSameTable(expect, actual, "parallel late fetch");
  EXPECT_NE(actual.plan_description.find("[parallel-fetch x4"),
            std::string::npos)
      << actual.plan_description;
  EXPECT_NE(actual.plan_description.find("[late-scan"), std::string::npos)
      << actual.plan_description;
}

/// Runs `fn` on its own thread; if it has not finished after `limit`, the
/// process aborts (a deadlocked thread cannot be joined or cancelled).
template <typename Fn>
void WithWatchdog(std::chrono::seconds limit, const char* what, Fn fn) {
  std::future<void> done = std::async(std::launch::async, std::move(fn));
  if (done.wait_for(limit) != std::future_status::ready) {
    fprintf(stderr, "watchdog: %s did not finish in %llds (deadlock?)\n",
            what, static_cast<long long>(limit.count()));
    std::abort();
  }
  done.get();
}

TEST(ParallelScanDeadlockTest, ConsumerHelpingThePoolNeverRunsItsOwnWorkers) {
  // The consumer of a parallel scan waits in HelpWait on the same pool (as
  // a parallel late fetch above the scan does) while one of the scan's
  // morsel workers is still queued. Run inline, that worker would block on
  // backpressure only this consumer can release. One pool thread and a
  // one-morsel window make the interleaving certain.
  ThreadPool pool(1);
  InMemoryTable table(Schema{{"v", DataType::kInt32}});
  {
    ColumnBatch batch(table.schema());
    auto col = std::make_shared<Column>(DataType::kInt32);
    for (int32_t i = 0; i < 64; ++i) col->Append<int32_t>(i);
    batch.AddColumn(std::move(col));
    batch.SetNumRows(64);
    ASSERT_OK(table.AppendBatch(batch));
  }
  constexpr int kMorsels = 16;
  WithWatchdog(std::chrono::seconds(60), "parallel scan consumer", [&] {
    std::vector<OperatorPtr> children;
    for (int m = 0; m < kMorsels; ++m) {
      children.push_back(table.CreateScan(/*batch_rows=*/16));
    }
    ParallelTableScanOperator::Options options;
    options.pool = &pool;
    options.num_threads = 2;
    options.max_inflight_morsels = 1;
    ParallelTableScanOperator scan(table.schema(), std::move(children),
                                   std::move(options));
    ASSERT_OK(scan.Open());
    int64_t rows = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(ColumnBatch batch, scan.Next());
      if (batch.end_of_stream()) break;
      rows += batch.num_rows();
      ASSERT_OK(pool.ParallelFor(4, 2, [](int64_t) { return Status::OK(); }));
    }
    ASSERT_OK(scan.Close());
    EXPECT_EQ(rows, kMorsels * 64);
  });
}

TEST_F(ParallelScanTest, JoinOverParallelLateFetchAlwaysFinishes) {
  // End to end: a hash join over a late fetch (parallel fetch x2) above a
  // parallel CSV scan, at num_threads=2, repeated. Every run must finish
  // and agree with the serial plan.
  const std::string f1 = dir_->FilePath("lf1.csv");
  const std::string f2 = dir_->FilePath("lf2.csv");
  TableSpec s1 = TableSpec::UniformInt32("lf1", 6, 40000, 5);
  TableSpec s2 = TableSpec::UniformInt32("lf2", 3, 2000, 6);
  s1.columns[0].max_value = 999;
  s2.columns[0].max_value = 999;
  ASSERT_OK(WriteCsvFile(s1, f1));
  ASSERT_OK(WriteCsvFile(s2, f2));
  const std::string sql =
      "SELECT MAX(lf1.col4), COUNT(*) FROM lf1 JOIN lf2 ON lf1.col0 = "
      "lf2.col0 WHERE lf1.col2 < 900000000";
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.use_shred_cache = false;
  options.populate_shred_cache = false;
  options.num_threads = 1;
  QueryResult reference;
  {
    RawEngine engine;
    auto session = engine.OpenSession();
    ASSERT_OK(engine.RegisterCsv("lf1", f1, s1.ToSchema()));
    ASSERT_OK(engine.RegisterCsv("lf2", f2, s2.ToSchema()));
    ASSERT_OK_AND_ASSIGN(reference, session->Query(sql, options));
  }
  options.num_threads = 2;
  WithWatchdog(std::chrono::seconds(120), "join over parallel late fetch",
               [&] {
                 for (int run = 0; run < 20; ++run) {
                   RawEngine engine;
                   auto session = engine.OpenSession();
                   ASSERT_OK(engine.RegisterCsv("lf1", f1, s1.ToSchema()));
                   ASSERT_OK(engine.RegisterCsv("lf2", f2, s2.ToSchema()));
                   for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
                     ASSERT_OK_AND_ASSIGN(QueryResult result,
                                          session->Query(sql, options));
                     ExpectSameTable(reference, result,
                                     "run " + std::to_string(run));
                     EXPECT_NE(result.plan_description.find(
                                   "[parallel-fetch x2"),
                               std::string::npos)
                         << result.plan_description;
                   }
                 }
               });
}

// =============================================================================
// Parallel hash-join build
// =============================================================================

TEST(JoinHashTableTest, ParallelBuildMatchesSerialRowForRow) {
  // Random keys with heavy skew: half the rows draw from ten hot keys, the
  // rest from a wide range. The parallel build must produce the same probe
  // structure — matches row-for-row, ascending — for any thread count.
  // Big enough that both parallel build phases engage (the chain-linking
  // phase stays serial below 1<<16 rows).
  constexpr int64_t kRows = 80011;
  std::mt19937_64 rng(20260731);
  std::uniform_int_distribution<int64_t> hot(0, 9);
  std::uniform_int_distribution<int64_t> wide(-1000000, 1000000);
  auto keys = std::make_shared<Column>(DataType::kInt64);
  std::vector<int64_t> key_values;
  for (int64_t i = 0; i < kRows; ++i) {
    int64_t k = (rng() & 1) != 0 ? hot(rng) : wide(rng);
    key_values.push_back(k);
    keys->Append<int64_t>(k);
  }

  JoinHashTable serial;
  ASSERT_OK(serial.Build(*keys, nullptr, 1));
  EXPECT_EQ(serial.num_rows(), kRows);
  EXPECT_GT(serial.num_buckets(), 0);

  std::vector<int64_t> probes = key_values;
  probes.push_back(31337000);  // a key that matches nothing
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  auto matches_of = [&](const JoinHashTable& table, int64_t key) {
    std::vector<int64_t> rows;
    table.ForEachMatch(key, [&](int64_t row) { rows.push_back(row); });
    return rows;
  };
  for (int threads : {2, 4, 8}) {
    JoinHashTable parallel;
    ASSERT_OK(parallel.Build(*keys, ThreadPool::Shared(), threads));
    ASSERT_EQ(parallel.num_buckets(), serial.num_buckets());
    for (int64_t key : probes) {
      std::vector<int64_t> expect = matches_of(serial, key);
      std::vector<int64_t> actual = matches_of(parallel, key);
      ASSERT_EQ(actual, expect) << "threads=" << threads << " key=" << key;
      // Ascending build-row order is the determinism contract.
      ASSERT_TRUE(std::is_sorted(expect.begin(), expect.end()));
    }
  }
}

TEST_F(ParallelScanTest, JoinDeterministicAcrossThreadCountsWithBuildStats) {
  // Engine-level join: skewed keys on both sides, parallel scan + parallel
  // join build + parallel late fetch vs the serial plan, plus the
  // description proof that the flat build structure ran.
  std::string f1 = dir_->FilePath("j1.csv");
  std::string f2 = dir_->FilePath("j2.csv");
  TableSpec s1 = TableSpec::UniformInt32("f1", 6, 4000, 99);
  TableSpec s2 = TableSpec::UniformInt32("f2", 4, 1500, 77);
  s1.columns[0].max_value = 500;  // duplicate-heavy join keys
  s2.columns[0].max_value = 500;
  ASSERT_OK(WriteCsvFile(s1, f1));
  ASSERT_OK(WriteCsvFile(s2, f2));

  auto run = [&](int threads) {
    RawEngine engine;
    auto session = engine.OpenSession();
    EXPECT_OK(engine.RegisterCsv("f1", f1, s1.ToSchema()));
    EXPECT_OK(engine.RegisterCsv("f2", f2, s2.ToSchema()));
    PlannerOptions options;
    options.access_path = AccessPathKind::kInSitu;
    options.num_threads = threads;
    std::vector<QueryResult> results;
    for (const char* sql :
         {"SELECT COUNT(*) FROM f1 JOIN f2 ON f1.col0 = f2.col0",
          "SELECT MAX(f1.col4) FROM f1 JOIN f2 ON f1.col0 = f2.col0 "
          "WHERE f2.col1 < 600000000",
          "SELECT MAX(f2.col3) FROM f1 JOIN f2 ON f1.col0 = f2.col0 "
          "WHERE f1.col2 < 700000000"}) {
      auto result = session->Query(sql, options);
      EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      if (result.ok()) results.push_back(std::move(result).value());
    }
    return results;
  };

  std::vector<QueryResult> reference = run(1);
  ASSERT_EQ(reference.size(), 3u);
  // Serial plans report the flat build structure too.
  EXPECT_NE(reference[0].plan_description.find("[join-build rows="),
            std::string::npos)
      << reference[0].plan_description;
  for (int threads : {2, 4, 8}) {
    std::vector<QueryResult> parallel = run(threads);
    ASSERT_EQ(parallel.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ExpectSameTable(reference[i], parallel[i],
                      "join threads=" + std::to_string(threads) + " query#" +
                          std::to_string(i));
    }
    EXPECT_NE(parallel[0].plan_description.find("[parallel join-build x" +
                                                std::to_string(threads)),
              std::string::npos)
        << parallel[0].plan_description;
    EXPECT_NE(parallel[0].plan_description.find("[join-build rows="),
              std::string::npos)
        << parallel[0].plan_description;
  }
}

// =============================================================================
// GroupByPartial merge API
// =============================================================================

TEST(GroupByPartialTest, PartitionedAbsorbPlusMergeEqualsSerialAbsorb) {
  ColumnBatch batch(Schema{{"k", DataType::kInt32},
                           {"v", DataType::kFloat64}});
  auto keys = std::make_shared<Column>(DataType::kInt32);
  auto values = std::make_shared<Column>(DataType::kFloat64);
  for (int i = 0; i < 997; ++i) {
    keys->Append<int32_t>(i % 5);
    values->Append<double>(i * 0.5);
  }
  batch.AddColumn(keys);
  batch.AddColumn(values);
  batch.SetNumRows(997);

  std::vector<int> key_cols = {0};
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, 1, "s"});
  aggs.push_back(AggSpec{AggKind::kCount, -1, "n"});
  std::vector<DataType> in_types = {DataType::kFloat64, DataType::kInt64};
  Schema out_schema{{"k", DataType::kInt32},
                    {"s", DataType::kFloat64},
                    {"n", DataType::kInt64}};

  GroupByPartial serial(key_cols, aggs, in_types);
  ASSERT_OK(serial.Absorb(batch, 0));
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> expected,
                       serial.Finalize(out_schema));

  for (uint64_t partitions : {2, 3, 8}) {
    std::vector<GroupByPartial> partials(
        partitions, GroupByPartial(key_cols, aggs, in_types));
    for (uint64_t p = 0; p < partitions; ++p) {
      ASSERT_OK(partials[p].Absorb(batch, 0, nullptr, nullptr, p, partitions));
    }
    GroupByPartial& merged = partials[0];
    for (uint64_t p = 1; p < partitions; ++p) {
      ASSERT_OK(merged.MergeFrom(partials[p]));
    }
    EXPECT_EQ(merged.num_groups(), serial.num_groups());
    ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> actual,
                         merged.Finalize(out_schema));
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      ASSERT_EQ(actual[c]->length(), expected[c]->length());
      for (int64_t r = 0; r < expected[c]->length(); ++r) {
        EXPECT_EQ(actual[c]->GetDatum(r).ToString(),
                  expected[c]->GetDatum(r).ToString())
            << "partitions=" << partitions << " (" << c << "," << r << ")";
      }
    }
  }
}

TEST(GroupByPartialTest, MergeRejectsMismatchedShapes) {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kCount, -1, "n"});
  GroupByPartial a({0}, aggs, {DataType::kInt64});
  GroupByPartial b({0, 1}, aggs, {DataType::kInt64});
  EXPECT_FALSE(a.MergeFrom(b).ok());
}

}  // namespace
}  // namespace raw
