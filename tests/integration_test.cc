// Cross-module integration and failure-injection tests: the dataset manager,
// corrupted-file handling, JIT operator preconditions, and end-to-end
// multi-format sessions.

#include <gtest/gtest.h>

#include <cstdlib>

#include "columnar/filter.h"
#include "common/mmap_file.h"
#include "engine/raw_engine.h"
#include "eventsim/ref_reader.h"
#include "scan/fused_pipeline.h"
#include "scan/shred_scan.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"
#include "workload/dataset.h"

namespace raw {
namespace {

// --- Dataset manager ---------------------------------------------------------

class DatasetTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    setenv("RAW_DATA_DIR", dir_->path().c_str(), 1);
    setenv("RAW_BENCH_ROWS", "500", 1);
    setenv("RAW_BENCH_ROWS_120", "200", 1);
    setenv("RAW_BENCH_EVENTS", "100", 1);
    setenv("RAW_BENCH_FILES", "2", 1);
  }

  void TearDown() override {
    unsetenv("RAW_DATA_DIR");
    unsetenv("RAW_BENCH_ROWS");
    unsetenv("RAW_BENCH_ROWS_120");
    unsetenv("RAW_BENCH_EVENTS");
    unsetenv("RAW_BENCH_FILES");
  }
};

TEST_F(DatasetTest, HonorsEnvironmentOverrides) {
  ASSERT_OK_AND_ASSIGN(Dataset dataset, Dataset::Open());
  EXPECT_EQ(dataset.dir(), dir_->path());
  EXPECT_EQ(dataset.d30_rows(), 500);
  EXPECT_EQ(dataset.d120_rows(), 200);
  EXPECT_EQ(dataset.higgs_events(), 100);
  EXPECT_EQ(dataset.higgs_files(), 2);
}

TEST_F(DatasetTest, MaterializesOnceAndReuses) {
  ASSERT_OK_AND_ASSIGN(Dataset dataset, Dataset::Open());
  ASSERT_OK_AND_ASSIGN(std::string csv, dataset.D30Csv());
  ASSERT_OK_AND_ASSIGN(uint64_t size1, FileSize(csv));
  EXPECT_GT(size1, 0u);
  // Second request returns the same file without rewriting.
  ASSERT_OK_AND_ASSIGN(std::string csv2, dataset.D30Csv());
  EXPECT_EQ(csv, csv2);
  ASSERT_OK_AND_ASSIGN(std::string bin, dataset.D30Binary());
  ASSERT_OK_AND_ASSIGN(std::string shuffled, dataset.D30CsvShuffled());
  EXPECT_NE(bin, csv);
  EXPECT_NE(shuffled, csv);
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> refs, dataset.HiggsRefFiles());
  EXPECT_EQ(refs.size(), 2u);
  ASSERT_OK_AND_ASSIGN(std::string runs, dataset.GoodRunsCsv());
  EXPECT_TRUE(FileExists(runs));
}

TEST_F(DatasetTest, ShuffledCopyHoldsSameMultiset) {
  ASSERT_OK_AND_ASSIGN(Dataset dataset, Dataset::Open());
  ASSERT_OK_AND_ASSIGN(std::string plain, dataset.D30Csv());
  ASSERT_OK_AND_ASSIGN(std::string shuffled, dataset.D30CsvShuffled());
  RawEngine engine;
  auto session = engine.OpenSession();
  Schema schema = dataset.D30Spec().ToSchema();
  ASSERT_OK(engine.RegisterCsv("a", plain, schema));
  ASSERT_OK(engine.RegisterCsv("b", shuffled, schema));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  for (const char* agg : {"SUM(col0)", "MAX(col3)", "COUNT(*)"}) {
    ASSERT_OK_AND_ASSIGN(
        QueryResult ra,
        session->Query(std::string("SELECT ") + agg + " FROM a", options));
    ASSERT_OK_AND_ASSIGN(
        QueryResult rb,
        session->Query(std::string("SELECT ") + agg + " FROM b", options));
    ASSERT_OK_AND_ASSIGN(Datum va, ra.Scalar());
    ASSERT_OK_AND_ASSIGN(Datum vb, rb.Scalar());
    EXPECT_EQ(va, vb) << agg;
  }
}

// --- failure injection ---------------------------------------------------------

using FailureTest = testing::TempDirTest;

TEST_F(FailureTest, CorruptRefFilesRejected) {
  // Garbage bytes.
  std::string garbage = Path("g.ref");
  ASSERT_OK(WriteStringToFile(garbage, "this is not an REF file at all"));
  EXPECT_FALSE(RefReader::Open(garbage).ok());
  // Truncated header.
  std::string tiny = Path("t.ref");
  ASSERT_OK(WriteStringToFile(tiny, "RE"));
  EXPECT_FALSE(RefReader::Open(tiny).ok());
  // Valid magic, directory offset beyond EOF.
  RefHeader header;
  header.directory_offset = 1 << 20;
  std::string bytes;
  header.SerializeTo(&bytes);
  std::string bad_dir = Path("d.ref");
  ASSERT_OK(WriteStringToFile(bad_dir, bytes));
  EXPECT_FALSE(RefReader::Open(bad_dir).ok());
}

TEST_F(FailureTest, MalformedCsvSurfacesParseError) {
  std::string path = Path("bad.csv");
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,notanumber\n"));
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv(
      "t", path, Schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}}));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;  // checked parse path
  auto result = session->Query("SELECT MAX(b) FROM t", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST_F(FailureTest, JitCsvScanRequiresTrailingNewline) {
  JitTemplateCache cache;
  if (!cache.compiler_available()) GTEST_SKIP();
  std::string path = Path("nonl.csv");
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4"));  // no trailing newline
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));
  FusedPipelineArgs args;
  args.spec.format = FileFormat::kCsv;
  args.spec.scan_mode = ScanMode::kSequential;
  args.spec.inputs = {{0, DataType::kInt32, false}};
  args.spec.projections = {0};
  args.output_schema = Schema{{"a", DataType::kInt32}};
  args.file = file.get();
  FusedPipelineOperator scan(&cache, std::move(args));
  Status st = scan.Open();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("trailing newline"), std::string_view::npos);
}

TEST_F(FailureTest, JitSelectiveScanRequiresRowSet) {
  JitTemplateCache cache;
  if (!cache.compiler_available()) GTEST_SKIP();
  std::string path = Path("b.bin");
  ASSERT_OK(WriteStringToFile(path, std::string(40, '\0')));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));
  FusedPipelineArgs args;
  args.spec.format = FileFormat::kBinary;
  args.spec.scan_mode = ScanMode::kByRowIndex;
  args.spec.inputs = {{0, DataType::kInt32, false}};
  args.spec.projections = {0};
  args.spec.row_width = 4;
  args.spec.column_offsets = {0};
  args.output_schema = Schema{{"a", DataType::kInt32}};
  args.file = file.get();
  // No row_set provided.
  FusedPipelineOperator scan(&cache, std::move(args));
  EXPECT_FALSE(scan.Open().ok());
}

// --- late scan with explicit row-id column ---------------------------------------

TEST_F(FailureTest, LateScanViaRowIdColumn) {
  // Build a batch source whose row ids live in a column (the join
  // pipeline-breaking shape) and late-fetch from a binary file.
  TableSpec spec = TableSpec::UniformInt32("t", 3, 50, 3);
  std::string bin = Path("t.bin");
  ASSERT_OK(WriteBinaryFile(spec, bin));
  ASSERT_OK_AND_ASSIGN(BinaryLayout layout,
                       BinaryLayout::Create(spec.ToSchema()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BinaryReader> reader,
                       BinaryReader::Open(bin, layout));

  Schema in_schema{{"x", DataType::kInt32},
                   {"__row", DataType::kInt64}};
  InMemoryTable table(in_schema);
  ColumnBatch batch(in_schema);
  auto x = std::make_shared<Column>(DataType::kInt32);
  auto rid = std::make_shared<Column>(DataType::kInt64);
  // Deliberately shuffled row ids, with repeats.
  std::vector<int64_t> wanted = {49, 3, 3, 17, 0};
  for (size_t i = 0; i < wanted.size(); ++i) {
    x->Append<int32_t>(static_cast<int32_t>(i));
    rid->Append<int64_t>(wanted[i]);
  }
  batch.AddColumn(x);
  batch.AddColumn(rid);
  ASSERT_OK(table.AppendBatch(batch));

  BinScanSpec fetch_spec;
  fetch_spec.outputs = {2};
  auto fetcher = std::make_unique<InsituRowFetcher>(reader.get(), fetch_spec);
  LateScanOperator late(table.CreateScan(), std::move(fetcher), "__row");
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&late));
  ASSERT_EQ(out.num_rows(), 5);
  // __row consumed, col2 appended.
  EXPECT_EQ(out.schema().FieldIndex("__row"), -1);
  int col2 = out.schema().FieldIndex("col2");
  ASSERT_GE(col2, 0);
  TableDataSource source(spec);
  for (size_t i = 0; i < wanted.size(); ++i) {
    EXPECT_EQ(out.column(col2)->GetDatum(static_cast<int64_t>(i)),
              source.Value(wanted[i], 2))
        << i;
  }
}

// --- one session across all three formats -----------------------------------------

TEST_F(FailureTest, ThreeFormatSession) {
  // CSV dimension, binary facts, REF events in one engine.
  TableSpec facts = TableSpec::UniformInt32("f", 4, 300, 8);
  for (auto& col : facts.columns) col.max_value = 50;
  ASSERT_OK(WriteBinaryFile(facts, Path("f.bin")));
  ASSERT_OK(WriteStringToFile(Path("dim.csv"), [] {
    std::string s;
    for (int i = 0; i <= 50; ++i) s += std::to_string(i) + "," +
                                       std::to_string(i % 5) + "\n";
    return s;
  }()));
  EventGenOptions ev;
  ev.num_events = 120;
  ASSERT_OK(WriteRefFile(Path("e.ref"), ev, 32));

  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterBinary("facts", Path("f.bin"), facts.ToSchema()));
  ASSERT_OK(engine.RegisterCsv(
      "dim", Path("dim.csv"),
      Schema{{"key", DataType::kInt32}, {"grp", DataType::kInt32}}));
  ASSERT_OK(engine.RegisterRef("ev", Path("e.ref")));

  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  ASSERT_OK_AND_ASSIGN(
      QueryResult join,
      session->Query("SELECT COUNT(*) FROM facts JOIN dim ON facts.col0 = "
                     "dim.key WHERE dim.grp = 2",
                     options));
  ASSERT_OK_AND_ASSIGN(Datum join_count, join.Scalar());
  // Ground truth.
  TableDataSource source(facts);
  int64_t expected = 0;
  for (int64_t r = 0; r < facts.rows; ++r) {
    int32_t key = source.Value(r, 0).int32_value();
    if (key % 5 == 2) ++expected;
  }
  EXPECT_EQ(join_count.int64_value(), expected);

  ASSERT_OK_AND_ASSIGN(
      QueryResult events,
      session->Query("SELECT COUNT(*) FROM ev_events", options));
  ASSERT_OK_AND_ASSIGN(Datum n, events.Scalar());
  EXPECT_EQ(n.int64_value(), 120);
}

}  // namespace
}  // namespace raw
