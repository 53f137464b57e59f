#include <gtest/gtest.h>

#include "columnar/filter.h"
#include "common/mmap_file.h"
#include "csv/csv_writer.h"
#include "engine/formats/builtin.h"
#include "scan/external_table_scan.h"
#include "scan/insitu_bin_scan.h"
#include "scan/insitu_csv_scan.h"
#include "scan/fused_pipeline.h"
#include "scan/loader.h"
#include "scan/morsel.h"
#include "scan/ref_scan.h"
#include "scan/shred_scan.h"
#include "eventsim/event_generator.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

/// Fixture providing a small CSV + binary pair with identical data.
class ScanTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    EnsureBuiltinFormatDriversRegistered();  // JIT codegen needs the registry
    spec_ = TableSpec::UniformInt32("t", 8, 500, /*seed=*/11);
    spec_.columns[5].type = DataType::kFloat64;  // mix in a float column
    csv_path_ = Path("t.csv");
    bin_path_ = Path("t.bin");
    ASSERT_OK(WriteCsvFile(spec_, csv_path_));
    ASSERT_OK(WriteBinaryFile(spec_, bin_path_));
    ASSERT_OK_AND_ASSIGN(csv_file_, MmapFile::Open(csv_path_));
    ASSERT_OK_AND_ASSIGN(BinaryLayout layout,
                         BinaryLayout::Create(spec_.ToSchema()));
    ASSERT_OK_AND_ASSIGN(bin_reader_, BinaryReader::Open(bin_path_, layout));
    source_ = std::make_unique<TableDataSource>(spec_);
  }

  Datum Expected(int64_t row, int col) const {
    return source_->Value(row, col);
  }

  TableSpec spec_;
  std::string csv_path_, bin_path_;
  std::unique_ptr<MmapFile> csv_file_;
  std::unique_ptr<BinaryReader> bin_reader_;
  std::unique_ptr<TableDataSource> source_;
};

TEST_F(ScanTest, InsituCsvSequentialReadsRequestedColumns) {
  CsvScanSpec spec;
  spec.file_schema = spec_.ToSchema();
  spec.outputs = {1, 5};
  spec.batch_rows = 64;
  InsituCsvScanOperator scan(csv_file_.get(), spec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  ASSERT_EQ(out.num_rows(), 500);
  for (int64_t r : {int64_t{0}, int64_t{100}, int64_t{499}}) {
    EXPECT_EQ(out.column(0)->GetDatum(r), Expected(r, 1)) << r;
    EXPECT_EQ(out.column(1)->GetDatum(r), Expected(r, 5)) << r;
  }
  ASSERT_TRUE(out.has_row_ids());
  EXPECT_EQ(out.row_ids()[499], 499);
}

TEST_F(ScanTest, InsituCsvBuildsPositionalMap) {
  PositionalMap pmap = PositionalMap::WithStride(8, 3);  // tracks 0,3,6
  CsvScanSpec spec;
  spec.file_schema = spec_.ToSchema();
  spec.outputs = {0};
  spec.build_pmap = &pmap;
  InsituCsvScanOperator scan(csv_file_.get(), spec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  ASSERT_EQ(pmap.num_rows(), 500);
  ASSERT_OK(pmap.CheckConsistency());
  // Jumping to tracked column 3 and parsing must give column-3 values.
  CsvScanSpec jump;
  jump.file_schema = spec_.ToSchema();
  jump.outputs = {3};
  jump.use_pmap = &pmap;
  jump.anchor_column = 3;
  InsituCsvScanOperator scan2(csv_file_.get(), jump);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out2, CollectAll(&scan2));
  ASSERT_EQ(out2.num_rows(), 500);
  for (int64_t r : {int64_t{0}, int64_t{250}, int64_t{499}}) {
    EXPECT_EQ(out2.column(0)->GetDatum(r), Expected(r, 3));
  }
}

TEST_F(ScanTest, InsituCsvIncrementalParseFromNearby) {
  PositionalMap pmap = PositionalMap::WithStride(8, 3);
  CsvScanSpec build;
  build.file_schema = spec_.ToSchema();
  build.outputs = {0};
  build.build_pmap = &pmap;
  InsituCsvScanOperator scan(csv_file_.get(), build);
  ASSERT_OK(CollectAll(&scan).status());
  // Column 5 is untracked; parse incrementally from tracked column 3.
  CsvScanSpec spec;
  spec.file_schema = spec_.ToSchema();
  spec.outputs = {5};
  spec.use_pmap = &pmap;
  spec.anchor_column = 3;
  InsituCsvScanOperator scan2(csv_file_.get(), spec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan2));
  for (int64_t r : {int64_t{7}, int64_t{123}}) {
    EXPECT_EQ(out.column(0)->GetDatum(r), Expected(r, 5));
  }
}

TEST_F(ScanTest, InsituCsvRowSetShred) {
  PositionalMap pmap = PositionalMap::WithStride(8, 1);  // track everything
  CsvScanSpec build;
  build.file_schema = spec_.ToSchema();
  build.outputs = {0};
  build.build_pmap = &pmap;
  InsituCsvScanOperator scan(csv_file_.get(), build);
  ASSERT_OK(CollectAll(&scan).status());

  CsvScanSpec spec;
  spec.file_schema = spec_.ToSchema();
  spec.outputs = {4};
  spec.use_pmap = &pmap;
  spec.anchor_column = 4;
  RowSet rows;
  rows.ids = {3, 77, 401};
  spec.row_set = rows;  // positions filled by Open()
  InsituCsvScanOperator scan2(csv_file_.get(), spec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan2));
  ASSERT_EQ(out.num_rows(), 3);
  EXPECT_EQ(out.column(0)->GetDatum(0), Expected(3, 4));
  EXPECT_EQ(out.column(0)->GetDatum(2), Expected(401, 4));
  EXPECT_EQ(out.row_ids()[1], 77);
}

TEST_F(ScanTest, InsituCsvValidatesSpec) {
  CsvScanSpec spec;
  spec.file_schema = spec_.ToSchema();
  spec.outputs = {};
  InsituCsvScanOperator empty(csv_file_.get(), spec);
  EXPECT_FALSE(empty.Open().ok());

  spec.outputs = {5, 1};  // not ascending
  InsituCsvScanOperator unsorted(csv_file_.get(), spec);
  EXPECT_FALSE(unsorted.Open().ok());

  spec.outputs = {99};
  InsituCsvScanOperator oob(csv_file_.get(), spec);
  EXPECT_FALSE(oob.Open().ok());
}

TEST_F(ScanTest, ExternalTableScanConvertsEverythingButReturnsRequested) {
  ExternalTableScanOperator scan(csv_file_.get(), spec_.ToSchema(), {2, 7});
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  ASSERT_EQ(out.num_rows(), 500);
  EXPECT_EQ(out.num_columns(), 2);
  EXPECT_EQ(out.column(0)->GetDatum(42), Expected(42, 2));
  EXPECT_EQ(out.column(1)->GetDatum(499), Expected(499, 7));
}

TEST_F(ScanTest, InsituBinScanSequentialAndRowSet) {
  BinScanSpec spec;
  spec.outputs = {0, 5};
  InsituBinScanOperator scan(bin_reader_.get(), spec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  ASSERT_EQ(out.num_rows(), 500);
  EXPECT_EQ(out.column(0)->GetDatum(123), Expected(123, 0));
  EXPECT_EQ(out.column(1)->GetDatum(456), Expected(456, 5));

  BinScanSpec subset;
  subset.outputs = {5};
  RowSet rows;
  rows.ids = {499, 0};  // arbitrary order allowed for binary
  subset.row_set = rows;
  InsituBinScanOperator scan2(bin_reader_.get(), subset);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out2, CollectAll(&scan2));
  ASSERT_EQ(out2.num_rows(), 2);
  EXPECT_EQ(out2.column(0)->GetDatum(0), Expected(499, 5));
  EXPECT_EQ(out2.column(0)->GetDatum(1), Expected(0, 5));
}

/// The plain projection of `cols` a JIT scan or fetcher compiles.
PipelineSpec ProjectionSpec(FileFormat format, ScanMode mode,
                            const Schema& schema, const std::vector<int>& cols) {
  PipelineSpec spec = PipelineSpecFor(
      ProjectionRequest(schema, cols, SchemaForColumns(schema, cols)));
  spec.format = format;
  spec.scan_mode = mode;
  return spec;
}

TEST_F(ScanTest, JitScanMatchesInterpreted) {
  JitTemplateCache cache;
  if (!cache.compiler_available()) GTEST_SKIP() << "no compiler";
  FusedPipelineArgs args;
  args.spec = ProjectionSpec(FileFormat::kCsv, ScanMode::kSequential,
                             spec_.ToSchema(), {1, 5});
  args.output_schema = Schema{{"c1", DataType::kInt32},
                              {"c5", DataType::kFloat64}};
  args.file = csv_file_.get();
  args.batch_rows = 128;
  FusedPipelineOperator jit_scan(&cache, std::move(args));
  ASSERT_OK_AND_ASSIGN(ColumnBatch jit_out, CollectAll(&jit_scan));

  CsvScanSpec interp;
  interp.file_schema = spec_.ToSchema();
  interp.outputs = {1, 5};
  InsituCsvScanOperator insitu(csv_file_.get(), interp);
  ASSERT_OK_AND_ASSIGN(ColumnBatch insitu_out, CollectAll(&insitu));

  ASSERT_EQ(jit_out.num_rows(), insitu_out.num_rows());
  EXPECT_TRUE(jit_out.column(0)->Equals(*insitu_out.column(0)));
  EXPECT_TRUE(jit_out.column(1)->Equals(*insitu_out.column(1)));
}

/// Every entry of two positional maps, row by row.
void ExpectSameMap(const PositionalMap& got, const PositionalMap& want) {
  ASSERT_OK(got.CheckConsistency());
  ASSERT_EQ(got.tracked_columns(), want.tracked_columns());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (int64_t r = 0; r < want.num_rows(); ++r) {
    ASSERT_EQ(got.RowStart(r), want.RowStart(r)) << r;
    for (int s = 0; s < want.num_tracked(); ++s) {
      ASSERT_EQ(got.Position(r, s), want.Position(r, s)) << r << "/" << s;
    }
  }
}

TEST_F(ScanTest, JitSequentialScanBuildsTheInsituMap) {
  JitTemplateCache cache;
  if (!cache.compiler_available()) GTEST_SKIP() << "no compiler";
  const Schema schema = spec_.ToSchema();
  // The in-situ scan's map is the reference.
  PositionalMap want = PositionalMap::WithStride(8, 3);  // tracks 0,3,6
  CsvScanSpec interp;
  interp.file_schema = schema;
  interp.outputs = {1};
  interp.build_pmap = &want;
  InsituCsvScanOperator insitu(csv_file_.get(), interp);
  ASSERT_OK(CollectAll(&insitu).status());
  ASSERT_EQ(want.num_rows(), 500);

  FusedPipelineArgs base;
  base.spec = ProjectionSpec(FileFormat::kCsv, ScanMode::kSequential, schema,
                             {1, 5});
  base.spec.pmap_tracked = want.tracked_columns();
  base.output_schema = SchemaForColumns(schema, {1, 5});
  base.file = csv_file_.get();
  base.batch_rows = 64;

  // Serial: one kernel over the whole file.
  PositionalMap serial = PositionalMap::WithStride(8, 3);
  FusedPipelineArgs args = base;
  args.build_pmap = &serial;
  FusedPipelineOperator scan(&cache, std::move(args));
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  EXPECT_EQ(out.num_rows(), 500);
  ExpectSameMap(serial, want);

  // Four byte-window morsels, each building a partial map whose offsets are
  // rebased to the file, appended in file order.
  std::vector<ScanRange> morsels = SplitCsvByteRanges(
      csv_file_->data(), csv_file_->size(), CsvOptions{}, 4, /*min_bytes=*/1);
  ASSERT_EQ(morsels.size(), 4u);
  PositionalMap merged = PositionalMap::WithStride(8, 3);
  int64_t rows = 0;
  for (const ScanRange& m : morsels) {
    PositionalMap part = PositionalMap::WithStride(8, 3);
    FusedPipelineArgs margs = base;
    margs.build_pmap = &part;
    margs.window_begin = static_cast<uint64_t>(m.begin);
    margs.window_end = static_cast<uint64_t>(m.end);
    FusedPipelineOperator morsel(&cache, std::move(margs));
    ASSERT_OK_AND_ASSIGN(ColumnBatch mout, CollectAll(&morsel));
    ASSERT_GT(mout.num_rows(), 0);
    EXPECT_EQ(mout.row_ids().front(), 0);  // window-local ids
    rows += mout.num_rows();
    ASSERT_OK(merged.AppendFrom(part));
  }
  EXPECT_EQ(rows, 500);
  ExpectSameMap(merged, want);
}

TEST_F(ScanTest, JitFetchersMatchInterpreted) {
  JitTemplateCache cache;
  if (!cache.compiler_available()) GTEST_SKIP() << "no compiler";
  const Schema schema = spec_.ToSchema();
  RowSet rows;
  rows.ids = {499, 0, 42, 42, 250};

  // Binary by-row-index.
  ASSERT_OK_AND_ASSIGN(BinaryLayout layout, BinaryLayout::Create(schema));
  FusedPipelineArgs bin;
  bin.spec = ProjectionSpec(FileFormat::kBinary, ScanMode::kByRowIndex, schema,
                            {2, 5});
  bin.spec.row_width = layout.row_width();
  bin.spec.column_offsets = {layout.ColumnOffset(2), layout.ColumnOffset(5)};
  bin.output_schema = SchemaForColumns(schema, {2, 5});
  bin.file = bin_reader_->file();
  ScanRowFetcher bin_fetcher(
      SchemaForColumns(schema, {2, 5}),
      ScanOverRows<FusedPipelineOperator>(&cache, std::move(bin)));
  BinScanSpec bin_interp;
  bin_interp.outputs = {2, 5};
  ScanRowFetcher bin_ref(
      SchemaForColumns(schema, {2, 5}),
      ScanOverRows<InsituBinScanOperator>(bin_reader_.get(), bin_interp));
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> got, bin_fetcher.Fetch(rows));
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> want, bin_ref.Fetch(rows));
  ASSERT_EQ(got.size(), 2u);
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_TRUE(got[c]->Equals(*want[c])) << c;
  }

  // CSV by-position, positions resolved from the map at fetch time.
  PositionalMap pmap = PositionalMap::WithStride(8, 3);
  CsvScanSpec build;
  build.file_schema = schema;
  build.outputs = {0};
  build.build_pmap = &pmap;
  InsituCsvScanOperator builder(csv_file_.get(), build);
  ASSERT_OK(CollectAll(&builder).status());
  FusedPipelineArgs csv;
  csv.spec = ProjectionSpec(FileFormat::kCsv, ScanMode::kByPosition, schema,
                            {4, 5});
  csv.spec.anchor_column = 3;
  csv.output_schema = SchemaForColumns(schema, {4, 5});
  csv.file = csv_file_.get();
  csv.pmap = &pmap;
  ScanRowFetcher csv_fetcher(
      SchemaForColumns(schema, {4, 5}),
      ScanOverRows<FusedPipelineOperator>(&cache, std::move(csv)));
  ASSERT_OK_AND_ASSIGN(got, csv_fetcher.Fetch(rows));
  ASSERT_EQ(got.size(), 2u);
  for (size_t i = 0; i < rows.ids.size(); ++i) {
    EXPECT_EQ(got[0]->GetDatum(static_cast<int64_t>(i)),
              Expected(rows.ids[i], 4)) << i;
    EXPECT_EQ(got[1]->GetDatum(static_cast<int64_t>(i)),
              Expected(rows.ids[i], 5)) << i;
  }
}

TEST_F(ScanTest, LateScanFetchesOnlySurvivors) {
  // Scan column 0, filter to a subset, late-fetch column 5 via binary.
  BinScanSpec base;
  base.outputs = {0};
  auto scan = std::make_unique<InsituBinScanOperator>(bin_reader_.get(), base);
  // Keep rows where col0 < literal at ~20% selectivity.
  Datum lit = spec_.SelectivityLiteral(0, 0.2);
  auto filter = std::make_unique<FilterOperator>(
      std::move(scan), Cmp(CompareOp::kLt, Col(0), Lit(lit)));

  BinScanSpec fetch_spec;
  fetch_spec.outputs = {5};
  auto fetcher = std::make_unique<ScanRowFetcher>(
      SchemaForColumns(spec_.ToSchema(), {5}),
      ScanOverRows<InsituBinScanOperator>(bin_reader_.get(), fetch_spec));
  LateScanOperator late(std::move(filter), std::move(fetcher));
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&late));
  ASSERT_GT(out.num_rows(), 0);
  ASSERT_LT(out.num_rows(), 500);
  EXPECT_EQ(out.num_columns(), 2);
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    int64_t row = out.row_ids()[static_cast<size_t>(i)];
    EXPECT_EQ(out.column(1)->GetDatum(i), Expected(row, 5));
  }
}

TEST_F(ScanTest, LateScanFetchCountEqualsSurvivors) {
  // The economic core of column shreds (§5.1, Figure 4): the pushed-up scan
  // touches exactly the qualifying rows, never the filtered-out ones.
  for (double fraction : {0.05, 0.3, 1.0}) {
    BinScanSpec base;
    base.outputs = {0};
    auto scan =
        std::make_unique<InsituBinScanOperator>(bin_reader_.get(), base);
    Datum lit = spec_.SelectivityLiteral(0, fraction);
    auto filter = std::make_unique<FilterOperator>(
        std::move(scan), Cmp(CompareOp::kLt, Col(0), Lit(lit)));
    FilterOperator* filter_ptr = filter.get();
    BinScanSpec fetch_spec;
    fetch_spec.outputs = {5};
    auto fetcher = std::make_unique<ScanRowFetcher>(
        SchemaForColumns(spec_.ToSchema(), {5}),
        ScanOverRows<InsituBinScanOperator>(bin_reader_.get(), fetch_spec));
    LateScanOperator late(std::move(filter), std::move(fetcher));
    ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&late));
    EXPECT_EQ(late.values_fetched(), filter_ptr->rows_out());
    EXPECT_EQ(out.num_rows(), filter_ptr->rows_out());
    EXPECT_EQ(filter_ptr->rows_in(), 500);
  }
}

TEST_F(ScanTest, CachedColumnFetcherGathers) {
  auto full = std::make_shared<Column>(DataType::kInt64);
  for (int64_t i = 0; i < 100; ++i) full->Append<int64_t>(i * 2);
  CachedColumnFetcher fetcher(Schema{{"x", DataType::kInt64}}, {full});
  RowSet rows;
  rows.ids = {5, 50, 99};
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> cols, fetcher.Fetch(rows));
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0]->Value<int64_t>(0), 10);
  EXPECT_EQ(cols[0]->Value<int64_t>(2), 198);
}

TEST_F(ScanTest, LoaderMaterializesCsv) {
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<InMemoryTable> table,
      LoadCsvTable(csv_file_.get(), spec_.ToSchema(), {0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(table->num_rows(), 500);
  EXPECT_EQ(table->column(5)->GetDatum(17), Expected(17, 5));
  EXPECT_GT(table->MemoryBytes(), 0);
}

TEST_F(ScanTest, LoaderMaterializesBinary) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<InMemoryTable> table,
                       LoadBinaryTable(bin_reader_.get(), {3}));
  EXPECT_EQ(table->num_rows(), 500);
  EXPECT_EQ(table->column(0)->GetDatum(321), Expected(321, 3));
}

TEST_F(ScanTest, ProfileAccumulatesPhases) {
  ScanProfile profile;
  CsvScanSpec spec;
  spec.file_schema = spec_.ToSchema();
  spec.outputs = {0, 5};
  spec.profile = &profile;
  InsituCsvScanOperator scan(csv_file_.get(), spec);
  ASSERT_OK(CollectAll(&scan).status());
  EXPECT_EQ(profile.rows, 500);
  EXPECT_GT(profile.parsing.total_nanos(), 0);
  EXPECT_GT(profile.conversion.total_nanos(), 0);
  EXPECT_FALSE(profile.ToString().empty());
}

// --- REF table scans -------------------------------------------------------------

class RefScanTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    EventGenOptions options;
    options.num_events = 400;
    options.seed = 5;
    path_ = Path("e.ref");
    ASSERT_OK(WriteRefFile(path_, options, 64));
    ASSERT_OK_AND_ASSIGN(reader_, RefReader::Open(path_));
  }

  std::string path_;
  std::unique_ptr<RefReader> reader_;
};

TEST_F(RefScanTest, EventTableScan) {
  RefScanSpec spec;
  spec.group = -1;
  RefTableScanOperator scan(reader_.get(), spec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  EXPECT_EQ(out.num_rows(), 400);
  EXPECT_EQ(out.schema().field(0).name, "eventID");
  EXPECT_EQ(out.column(0)->Value<int64_t>(123), 123);
}

TEST_F(RefScanTest, ParticleTableDerivesEventId) {
  RefScanSpec spec;
  spec.group = kMuon;
  RefTableScanOperator scan(reader_.get(), spec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  EXPECT_EQ(out.num_rows(), reader_->GroupTotal(kMuon));
  // eventID column must be non-decreasing and match the nesting structure.
  int64_t prev = -1;
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    int64_t ev = out.column(0)->Value<int64_t>(i);
    EXPECT_GE(ev, prev);
    prev = ev;
  }
  // Cross-check one event's range.
  int64_t begin, count;
  reader_->GroupRange(kMuon, 10, &begin, &count);
  for (int64_t k = 0; k < count; ++k) {
    EXPECT_EQ(out.column(0)->Value<int64_t>(begin + k), 10);
  }
}

TEST_F(RefScanTest, IdBasedRowSetScan) {
  RefScanSpec spec;
  spec.group = -1;
  spec.fields = {"runNumber"};
  RowSet rows;
  rows.ids = {7, 300, 42};
  spec.row_set = rows;
  RefTableScanOperator scan(reader_.get(), spec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  ASSERT_EQ(out.num_rows(), 3);
  Event e;
  ASSERT_OK(reader_->GetEntry(300, &e));
  EXPECT_EQ(out.column(0)->Value<int32_t>(1), e.run_number);
}

TEST_F(RefScanTest, JitKernelsMatchInterpreted) {
  EnsureBuiltinFormatDriversRegistered();
  JitTemplateCache cache;
  if (!cache.compiler_available()) GTEST_SKIP() << "no compiler";
  RefScanSpec interp;
  interp.group = kMuon;
  interp.fields = {"pt", "eta"};
  RefTableScanOperator insitu(reader_.get(), interp);
  ASSERT_OK_AND_ASSIGN(ColumnBatch want, CollectAll(&insitu));
  ASSERT_GT(want.num_rows(), 100);

  ASSERT_OK_AND_ASSIGN(int pt, RefBranchFor(*reader_, kMuon, "pt"));
  ASSERT_OK_AND_ASSIGN(int eta, RefBranchFor(*reader_, kMuon, "eta"));
  FusedPipelineArgs base;
  base.spec.format = FileFormat::kRef;
  base.spec.inputs = {{pt, want.column(0)->type(), false},
                      {eta, want.column(1)->type(), false}};
  base.spec.projections = {0, 1};
  base.output_schema = want.schema();
  base.ref_reader = reader_.get();
  base.batch_rows = 37;

  // Project mode over the whole table, then over a middle row range.
  FusedPipelineArgs args = base;
  args.spec.scan_mode = ScanMode::kSequential;
  args.rows = ScanRange::Rows(0, want.num_rows());
  FusedPipelineOperator scan(&cache, std::move(args));
  ASSERT_OK_AND_ASSIGN(ColumnBatch got, CollectAll(&scan));
  ASSERT_EQ(got.num_rows(), want.num_rows());
  EXPECT_TRUE(got.column(0)->Equals(*want.column(0)));
  EXPECT_TRUE(got.column(1)->Equals(*want.column(1)));
  EXPECT_EQ(got.row_ids().back(), want.num_rows() - 1);

  args = base;
  args.spec.scan_mode = ScanMode::kSequential;
  args.rows = ScanRange::Rows(10, 50);
  FusedPipelineOperator morsel(&cache, std::move(args));
  ASSERT_OK_AND_ASSIGN(got, CollectAll(&morsel));
  ASSERT_EQ(got.num_rows(), 50);
  EXPECT_EQ(got.row_ids().front(), 10);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(got.column(1)->GetDatum(i), want.column(1)->GetDatum(10 + i));
  }

  // By-row-index fetch.
  args = base;
  args.spec.scan_mode = ScanMode::kByRowIndex;
  const Schema fields = args.output_schema;
  ScanRowFetcher fetcher(
      fields, ScanOverRows<FusedPipelineOperator>(&cache, std::move(args)));
  RowSet rows;
  rows.ids = {want.num_rows() - 1, 0, 77, 77};
  ASSERT_OK_AND_ASSIGN(std::vector<ColumnPtr> fetched, fetcher.Fetch(rows));
  ASSERT_EQ(fetched.size(), 2u);
  for (size_t i = 0; i < rows.ids.size(); ++i) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_EQ(fetched[static_cast<size_t>(c)]->GetDatum(
                    static_cast<int64_t>(i)),
                want.column(c)->GetDatum(rows.ids[i]))
          << i << "/" << c;
    }
  }
}

TEST_F(RefScanTest, LoadersBuildTables) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<InMemoryTable> events,
                       LoadRefEventTable(reader_.get()));
  EXPECT_EQ(events->num_rows(), 400);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<InMemoryTable> jets,
                       LoadRefParticleTable(reader_.get(), kJet));
  EXPECT_EQ(jets->num_rows(), reader_->GroupTotal(kJet));
}

}  // namespace
}  // namespace raw
