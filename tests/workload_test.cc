#include <gtest/gtest.h>

#include "binfmt/binary_reader.h"
#include "common/mmap_file.h"
#include "eventsim/event_generator.h"
#include "scan/insitu_bin_scan.h"
#include "scan/insitu_csv_scan.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"
#include "workload/higgs.h"
#include "workload/lineitem_gen.h"

namespace raw {
namespace {

TEST(TableSpecTest, FactoriesShapeTables) {
  TableSpec d30 = TableSpec::UniformInt32("d30", 30, 100);
  EXPECT_EQ(d30.columns.size(), 30u);
  EXPECT_EQ(d30.ToSchema().field(11).name, "col11");
  TableSpec d120 = TableSpec::Mixed120("d120", 100);
  EXPECT_EQ(d120.columns.size(), 120u);
  EXPECT_EQ(d120.columns[0].type, DataType::kInt32);
  EXPECT_EQ(d120.columns[1].type, DataType::kFloat64);
}

TEST(TableSpecTest, ValuesDeterministicAndInRange) {
  TableSpec spec = TableSpec::UniformInt32("t", 5, 100, 9);
  TableDataSource a(spec), b(spec);
  for (int64_t r = 0; r < 100; ++r) {
    for (int c = 0; c < 5; ++c) {
      Datum va = a.Value(r, c);
      EXPECT_EQ(va, b.Value(r, c));
      EXPECT_GE(va.int32_value(), 0);
      EXPECT_LE(va.int32_value(), 999999999);
    }
  }
  // Different cells differ (overwhelmingly).
  EXPECT_NE(a.Value(0, 0), a.Value(1, 0));
}

TEST(TableSpecTest, SelectivityLiteralApproximatesFraction) {
  TableSpec spec = TableSpec::UniformInt32("t", 2, 20000, 3);
  TableDataSource source(spec);
  for (double frac : {0.1, 0.5, 0.9}) {
    int64_t lit = *spec.SelectivityLiteral(0, frac).AsInt64();
    int64_t passing = 0;
    for (int64_t r = 0; r < spec.rows; ++r) {
      if (*source.Value(r, 0).AsInt64() < lit) ++passing;
    }
    double actual = static_cast<double>(passing) /
                    static_cast<double>(spec.rows);
    EXPECT_NEAR(actual, frac, 0.02) << frac;
  }
}

TEST(TableSpecTest, ShuffledPermutationIsBijection) {
  std::vector<int64_t> perm = ShuffledPermutation(1000, 4);
  std::vector<bool> seen(1000, false);
  for (int64_t p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 1000);
    ASSERT_FALSE(seen[static_cast<size_t>(p)]);
    seen[static_cast<size_t>(p)] = true;
  }
  // Deterministic and non-identity.
  EXPECT_EQ(perm, ShuffledPermutation(1000, 4));
  EXPECT_NE(perm, ShuffledPermutation(1000, 5));
}

using DataGenTest = testing::TempDirTest;

TEST_F(DataGenTest, CsvAndBinaryHoldIdenticalData) {
  TableSpec spec = TableSpec::UniformInt32("t", 4, 200, 8);
  spec.columns[2].type = DataType::kFloat64;
  ASSERT_OK(WriteCsvFile(spec, Path("t.csv")));
  ASSERT_OK(WriteBinaryFile(spec, Path("t.bin")));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> csv,
                       MmapFile::Open(Path("t.csv")));
  CsvScanSpec cspec;
  cspec.file_schema = spec.ToSchema();
  cspec.outputs = {0, 1, 2, 3};
  InsituCsvScanOperator cscan(csv.get(), cspec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch from_csv, CollectAll(&cscan));

  ASSERT_OK_AND_ASSIGN(BinaryLayout layout,
                       BinaryLayout::Create(spec.ToSchema()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BinaryReader> bin,
                       BinaryReader::Open(Path("t.bin"), layout));
  BinScanSpec bspec;
  bspec.outputs = {0, 1, 2, 3};
  InsituBinScanOperator bscan(bin.get(), bspec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch from_bin, CollectAll(&bscan));

  ASSERT_EQ(from_csv.num_rows(), from_bin.num_rows());
  for (int c = 0; c < 4; ++c) {
    EXPECT_TRUE(from_csv.column(c)->Equals(*from_bin.column(c))) << c;
  }
}

TEST_F(DataGenTest, PermutationReordersRows) {
  TableSpec spec = TableSpec::UniformInt32("t", 2, 50, 8);
  std::vector<int64_t> perm = ShuffledPermutation(50, 1);
  ASSERT_OK(WriteCsvFile(spec, Path("p.csv"), &perm));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> csv,
                       MmapFile::Open(Path("p.csv")));
  CsvScanSpec cspec;
  cspec.file_schema = spec.ToSchema();
  cspec.outputs = {0};
  InsituCsvScanOperator scan(csv.get(), cspec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  TableDataSource source(spec);
  for (int64_t r = 0; r < 50; ++r) {
    EXPECT_EQ(out.column(0)->GetDatum(r),
              source.Value(perm[static_cast<size_t>(r)], 0));
  }
}

TEST_F(DataGenTest, LineitemGeneratorWritesValidCsv) {
  LineitemGenOptions options;
  options.rows = 500;
  ASSERT_OK(WriteLineitemCsv(Path("li.csv"), options));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> csv,
                       MmapFile::Open(Path("li.csv")));
  CsvScanSpec cspec;
  cspec.file_schema = LineitemSchema();
  cspec.outputs = {0, 4, 5, 6};
  InsituCsvScanOperator scan(csv.get(), cspec);
  ASSERT_OK_AND_ASSIGN(ColumnBatch out, CollectAll(&scan));
  ASSERT_EQ(out.num_rows(), 500);
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    EXPECT_GE(out.column(1)->Value<int32_t>(r), 1);   // quantity
    EXPECT_LE(out.column(1)->Value<int32_t>(r), 50);
    EXPECT_GE(out.column(3)->Value<double>(r), 0.0);  // discount
    EXPECT_LE(out.column(3)->Value<double>(r), 0.10 + 1e-9);
  }
}

// --- Higgs ------------------------------------------------------------------------

class HiggsTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    for (int f = 0; f < 2; ++f) {
      EventGenOptions options;
      options.num_events = 500;
      options.seed = 100 + static_cast<uint64_t>(f);
      std::string name = "h";
      name += std::to_string(f);
      std::string path = Path(name + ".ref");
      ASSERT_OK(WriteRefFile(path, options, 128));
      paths_.push_back(path);
      if (f == 0) ASSERT_OK(WriteGoodRunsCsv(Path("runs.csv"), options));
    }
  }

  std::vector<std::string> paths_;
};

TEST_F(HiggsTest, LoadGoodRunsParsesAll) {
  ASSERT_OK_AND_ASSIGN(std::set<int32_t> runs, LoadGoodRuns(Path("runs.csv")));
  EXPECT_FALSE(runs.empty());
}

TEST_F(HiggsTest, HandwrittenAndRawAgreeExactly) {
  HiggsCuts cuts;
  HandwrittenHiggsAnalysis handwritten(paths_, Path("runs.csv"), cuts);
  RawHiggsAnalysis raw_analysis(paths_, Path("runs.csv"), cuts);
  ASSERT_OK_AND_ASSIGN(HiggsResult hw, handwritten.Run());
  ASSERT_OK_AND_ASSIGN(HiggsResult rw, raw_analysis.Run());
  EXPECT_EQ(hw.events_scanned, 1000);
  EXPECT_TRUE(hw == rw) << "candidates: " << hw.candidates << " vs "
                        << rw.candidates;
  EXPECT_GT(hw.candidates, 0) << "cuts too tight for the generated data";
  EXPECT_LT(hw.candidates, hw.events_scanned);
  // Warm runs reproduce the same result.
  ASSERT_OK_AND_ASSIGN(HiggsResult hw2, handwritten.Run());
  ASSERT_OK_AND_ASSIGN(HiggsResult rw2, raw_analysis.Run());
  EXPECT_TRUE(hw == hw2);
  EXPECT_TRUE(rw == rw2);
  EXPECT_TRUE(raw_analysis.warm());
}

TEST_F(HiggsTest, CutVariationsStayConsistent) {
  for (float pt_cut : {5.0f, 30.0f, 60.0f}) {
    HiggsCuts cuts;
    cuts.min_muon_pt = pt_cut;
    HandwrittenHiggsAnalysis handwritten(paths_, Path("runs.csv"), cuts);
    RawHiggsAnalysis raw_analysis(paths_, Path("runs.csv"), cuts);
    ASSERT_OK_AND_ASSIGN(HiggsResult hw, handwritten.Run());
    ASSERT_OK_AND_ASSIGN(HiggsResult rw, raw_analysis.Run());
    EXPECT_TRUE(hw == rw) << "pt cut " << pt_cut;
  }
}

TEST_F(HiggsTest, HistogramCountsSumToCandidates) {
  HiggsCuts cuts;
  HandwrittenHiggsAnalysis handwritten(paths_, Path("runs.csv"), cuts);
  ASSERT_OK_AND_ASSIGN(HiggsResult result, handwritten.Run());
  int64_t total = 0;
  for (int64_t bin : result.histogram) total += bin;
  EXPECT_EQ(total, result.candidates);
}

}  // namespace
}  // namespace raw
