#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/mmap_file.h"
#include "common/stopwatch.h"
#include "csv/csv_writer.h"
#include "jit/cc_compiler.h"
#include "jit/pipeline_codegen.h"
#include "jit/source_builder.h"
#include "engine/formats/builtin.h"
#include "jit/template_cache.h"
#include "tests/test_util.h"

namespace raw {
namespace {

TEST(SourceBuilderTest, IndentsAndCloses) {
  SourceBuilder src;
  src.Open("if (x) {").Line("y();").Close();
  EXPECT_EQ(src.str(), "if (x) {\n  y();\n}\n");
}

/// A plain scan kernel: a project-mode spec emitting every input, in order.
PipelineSpec ScanSpec(FileFormat format, ScanMode mode,
                      std::vector<PipelineInput> inputs) {
  PipelineSpec spec;
  spec.format = format;
  spec.scan_mode = mode;
  spec.inputs = std::move(inputs);
  for (size_t k = 0; k < spec.inputs.size(); ++k) {
    spec.projections.push_back(static_cast<int>(k));
  }
  return spec;
}

PipelineSpec CsvSeqSpec() {
  PipelineSpec spec =
      ScanSpec(FileFormat::kCsv, ScanMode::kSequential,
               {{0, DataType::kInt32, false}, {2, DataType::kFloat64, false}});
  spec.pmap_tracked = {0, 2};
  return spec;
}

TEST(CodegenTest, CsvSequentialSourceShape) {
  ASSERT_OK_AND_ASSIGN(std::string src,
                       GenerateCsvPipelineSource(CsvSeqSpec()));
  // Unrolled per-column blocks, no per-column switch in the emitted code.
  EXPECT_NE(src.find("raw_jit_scan_batch"), std::string::npos);
  EXPECT_NE(src.find("// column 0"), std::string::npos);
  EXPECT_NE(src.find("// column 2"), std::string::npos);
  EXPECT_NE(src.find("pmap_pos"), std::string::npos);
  EXPECT_EQ(src.find("switch"), std::string::npos);
}

TEST(CodegenTest, CsvRejectsBadSpecs) {
  PipelineSpec spec = CsvSeqSpec();
  spec.inputs.clear();
  spec.projections.clear();
  EXPECT_FALSE(GenerateCsvPipelineSource(spec).ok());
  spec = CsvSeqSpec();
  spec.inputs = {{2, DataType::kInt32, false}, {0, DataType::kInt32, false}};
  EXPECT_FALSE(GenerateCsvPipelineSource(spec).ok());  // unsorted
  spec = CsvSeqSpec();
  spec.scan_mode = ScanMode::kByRowIndex;
  spec.pmap_tracked.clear();
  EXPECT_FALSE(GenerateCsvPipelineSource(spec).ok());
  // By-position left of anchor is unreachable.
  spec = CsvSeqSpec();
  spec.scan_mode = ScanMode::kByPosition;
  spec.pmap_tracked.clear();
  spec.anchor_column = 1;
  EXPECT_FALSE(GenerateCsvPipelineSource(spec).ok());
  spec.anchor_column = 0;
  EXPECT_OK(GenerateCsvPipelineSource(spec).status());
}

TEST(CodegenTest, CsvSequentialKernelsArePlainProjections) {
  // The cold scan that builds the map does not fuse: no predicates, no
  // aggregates, no dense inputs.
  PipelineSpec spec = CsvSeqSpec();
  ASSERT_OK(GenerateCsvPipelineSource(spec).status());
  spec.predicates = {{0, CompareOp::kLt, Datum::Int32(5)}};
  EXPECT_FALSE(GenerateCsvPipelineSource(spec).ok());
  spec = CsvSeqSpec();
  spec.mode = PipelineOutputMode::kAggregate;
  spec.projections.clear();
  spec.aggs = {{AggKind::kCount, -1}};
  EXPECT_FALSE(GenerateCsvPipelineSource(spec).ok());
  spec = CsvSeqSpec();
  spec.pmap_tracked.clear();
  spec.inputs[0].dense = true;
  EXPECT_FALSE(GenerateCsvPipelineSource(spec).ok());
  // Only the sequential CSV kernel tracks map columns.
  spec = CsvSeqSpec();
  spec.scan_mode = ScanMode::kByPosition;
  EXPECT_FALSE(GenerateCsvPipelineSource(spec).ok());
}

TEST(CodegenTest, BinarySourceHardCodesOffsets) {
  PipelineSpec spec = ScanSpec(FileFormat::kBinary, ScanMode::kSequential,
                               {{1, DataType::kInt64, false}});
  spec.row_width = 20;
  spec.column_offsets = {4};
  ASSERT_OK_AND_ASSIGN(std::string src, GenerateBinPipelineSource(spec));
  EXPECT_NE(src.find("20ull"), std::string::npos);
  EXPECT_NE(src.find("4ull"), std::string::npos);
  spec.scan_mode = ScanMode::kByRowIndex;
  ASSERT_OK_AND_ASSIGN(src, GenerateBinPipelineSource(spec));
  EXPECT_NE(src.find("20ull"), std::string::npos);
  EXPECT_NE(src.find("4ull"), std::string::npos);
}

TEST(CodegenTest, BinaryValidatesSpec) {
  PipelineSpec spec = ScanSpec(FileFormat::kBinary, ScanMode::kSequential,
                               {{1, DataType::kInt64, false}});
  spec.row_width = 0;  // missing
  spec.column_offsets = {4};
  EXPECT_FALSE(GenerateBinPipelineSource(spec).ok());
  spec.row_width = 20;
  spec.column_offsets = {};  // not parallel
  EXPECT_FALSE(GenerateBinPipelineSource(spec).ok());
  spec.column_offsets = {4};
  spec.scan_mode = ScanMode::kByPosition;  // offsets are computed
  EXPECT_FALSE(GenerateBinPipelineSource(spec).ok());
}

TEST(CodegenTest, RefSourceCallsApi) {
  PipelineSpec spec = ScanSpec(FileFormat::kRef, ScanMode::kByRowIndex,
                               {{3, DataType::kFloat32, false}});
  ASSERT_OK_AND_ASSIGN(std::string src, GenerateRefPipelineSource(spec));
  EXPECT_NE(src.find("ctx->ref.read_range"), std::string::npos);
  spec.scan_mode = ScanMode::kSequential;
  ASSERT_OK_AND_ASSIGN(src, GenerateRefPipelineSource(spec));
  EXPECT_NE(src.find("ctx->ref.read_range"), std::string::npos);
  spec.scan_mode = ScanMode::kByPosition;  // REF access is id-based
  EXPECT_FALSE(GenerateRefPipelineSource(spec).ok());
}

TEST(CacheKeyTest, DistinguishesSpecs) {
  PipelineSpec a = CsvSeqSpec();
  PipelineSpec b = CsvSeqSpec();
  EXPECT_EQ(a.CacheKey(), b.CacheKey());
  b.inputs[0].column = 1;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  b = CsvSeqSpec();
  b.pmap_tracked = {0};
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  b = CsvSeqSpec();
  b.scan_mode = ScanMode::kByPosition;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
}

// --- fused pipeline specs: run-time literals and lean TUs ---------------------

/// A fused binary aggregate: SUM(col2) WHERE col1 < 123456789 over a file
/// column (col1, int32) and a dense cached column (col2, int64).
PipelineSpec BinPipelineSpec() {
  PipelineSpec spec;
  spec.format = FileFormat::kBinary;
  spec.scan_mode = ScanMode::kSequential;
  spec.row_width = 20;
  spec.column_offsets = {4};
  spec.inputs = {{1, DataType::kInt32, false}, {2, DataType::kInt64, true}};
  spec.predicates = {{0, CompareOp::kLt, Datum::Int32(123456789)}};
  spec.mode = PipelineOutputMode::kAggregate;
  spec.aggs = {{AggKind::kSum, 1}};
  return spec;
}

TEST(PipelineCacheKeyTest, IgnoresLiteralValuesButNotTheShape) {
  const PipelineSpec a = BinPipelineSpec();
  PipelineSpec b = BinPipelineSpec();
  for (int32_t v : {INT32_MIN, -1, 0, 7, INT32_MAX}) {
    b.predicates[0].literal = Datum::Int32(v);
    EXPECT_EQ(a.CacheKey(), b.CacheKey()) << v;
  }
  EXPECT_EQ(a.CacheKey().find("123456789"), std::string::npos)
      << a.CacheKey();

  b = BinPipelineSpec();
  b.predicates[0].op = CompareOp::kGe;
  EXPECT_NE(a.CacheKey(), b.CacheKey()) << "op";
  b = BinPipelineSpec();
  b.predicates[0].literal = Datum::Int64(123456789);
  EXPECT_NE(a.CacheKey(), b.CacheKey()) << "literal type";
  b = BinPipelineSpec();
  b.predicates[0].input = 1;
  b.predicates[0].literal = Datum::Int64(123456789);
  EXPECT_NE(a.CacheKey(), b.CacheKey()) << "input";
  b = BinPipelineSpec();
  b.inputs[1].dense = false;
  EXPECT_NE(a.CacheKey(), b.CacheKey()) << "denseness";
}

TEST(PipelineCodegenTest, LiteralsAreLoadedNotSpelled) {
  ASSERT_OK_AND_ASSIGN(std::string src,
                       GenerateBinPipelineSource(BinPipelineSpec()));
  EXPECT_EQ(src.find("123456789"), std::string::npos) << src;
  EXPECT_NE(src.find("ctx->pred_literals[0].i32"), std::string::npos) << src;
  // Integer-only TUs include C headers alone, and the mask dispatcher trusts
  // the host-clamped kernel tier instead of probing the CPU.
  EXPECT_EQ(src.find("<charconv>"), std::string::npos) << src;
  EXPECT_EQ(src.find("__builtin_cpu_supports"), std::string::npos) << src;

  // Same for a CSV fused kernel over int columns, with the predicate on a
  // dense input (the AVX2/scalar mask prepass).
  PipelineSpec csv;
  csv.format = FileFormat::kCsv;
  csv.scan_mode = ScanMode::kByPosition;
  csv.inputs = {{1, DataType::kInt32, true}, {3, DataType::kInt64, false}};
  csv.predicates = {{0, CompareOp::kGe, Datum::Int32(-987654321)},
                    {1, CompareOp::kNe, Datum::Int64(INT64_MIN)}};
  csv.mode = PipelineOutputMode::kProject;
  csv.projections = {1};
  ASSERT_OK_AND_ASSIGN(src, GenerateCsvPipelineSource(csv));
  EXPECT_EQ(src.find("987654321"), std::string::npos) << src;
  EXPECT_EQ(src.find("9223372036854775"), std::string::npos) << src;
  EXPECT_NE(src.find("ctx->pred_literals[0].i32"), std::string::npos) << src;
  EXPECT_NE(src.find("ctx->pred_literals[1].i64"), std::string::npos) << src;
  EXPECT_EQ(src.find("<charconv>"), std::string::npos) << src;

  // A CSV float field is parsed with std::from_chars, which needs the header.
  csv.inputs[1].type = DataType::kFloat64;
  csv.predicates[1].literal = Datum::Float64(0.25);
  ASSERT_OK_AND_ASSIGN(src, GenerateCsvPipelineSource(csv));
  EXPECT_NE(src.find("<charconv>"), std::string::npos) << src;
  EXPECT_NE(src.find("ctx->pred_literals[1].f64"), std::string::npos) << src;
}

TEST(CodegenTest, IntegerCsvScanIncludesNoCxxHeader) {
  PipelineSpec spec = CsvSeqSpec();
  spec.inputs = {{0, DataType::kInt32, false}, {2, DataType::kInt64, false}};
  ASSERT_OK_AND_ASSIGN(std::string src, GenerateCsvPipelineSource(spec));
  EXPECT_EQ(src.find("<charconv>"), std::string::npos) << src;
  ASSERT_OK_AND_ASSIGN(src, GenerateCsvPipelineSource(CsvSeqSpec()));
  EXPECT_NE(src.find("<charconv>"), std::string::npos) << src;
}

// --- compile & execute ----------------------------------------------------------

class JitExecTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    // Codegen dispatches through the format registry even when driven
    // directly (no catalog to register the builtins for us).
    EnsureBuiltinFormatDriversRegistered();
    if (!cache_.compiler_available()) {
      GTEST_SKIP() << "no external C++ compiler on this host (probed '"
                   << cache_.compiler_options().cxx
                   << "'; set $RAW_JIT_CXX to point at a working compiler)";
    }
  }

  JitTemplateCache cache_;
};

TEST_F(JitExecTest, CompilesAndRunsCsvSequential) {
  // 3-column CSV: int,int,float
  std::string path = Path("t.csv");
  CsvWriter writer(path);
  ASSERT_OK(writer.Open());
  for (int i = 0; i < 1000; ++i) {
    writer.AppendInt32(i);
    writer.AppendInt32(-i * 3);
    writer.AppendFloat64(i * 0.5);
    writer.EndRow();
  }
  ASSERT_OK(writer.Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));

  PipelineSpec spec =
      ScanSpec(FileFormat::kCsv, ScanMode::kSequential,
               {{1, DataType::kInt32, false}, {2, DataType::kFloat64, false}});
  ASSERT_OK_AND_ASSIGN(CompiledKernel kernel, cache_.GetOrCompile(spec));
  EXPECT_GT(kernel.compile_seconds, 0);

  std::vector<int32_t> out1(1000);
  std::vector<double> out2(1000);
  std::vector<int64_t> row_ids(1000);
  void* outs[] = {out1.data(), out2.data()};
  RawJitContext ctx = {};
  ctx.file_data = file->data();
  ctx.file_size = file->size();
  ctx.max_rows = 1000;
  ctx.out_columns = outs;
  ctx.out_row_ids = row_ids.data();
  int64_t produced = kernel.entry(&ctx);
  ASSERT_EQ(produced, 1000);
  EXPECT_EQ(out1[7], -21);
  EXPECT_DOUBLE_EQ(out2[999], 499.5);
  EXPECT_EQ(row_ids[500], 500);
  // Second call: EOF.
  EXPECT_EQ(kernel.entry(&ctx), 0);
}

TEST_F(JitExecTest, TemplateCacheHitsSkipCompilation) {
  PipelineSpec spec = ScanSpec(FileFormat::kBinary, ScanMode::kSequential,
                               {{0, DataType::kInt32, false}});
  spec.row_width = 4;
  spec.column_offsets = {0};
  ASSERT_OK_AND_ASSIGN(CompiledKernel first, cache_.GetOrCompile(spec));
  EXPECT_GT(first.compile_seconds, 0);
  ASSERT_OK_AND_ASSIGN(CompiledKernel second, cache_.GetOrCompile(spec));
  EXPECT_EQ(second.compile_seconds, 0);
  EXPECT_EQ(second.entry, first.entry);
  EXPECT_EQ(cache_.hits(), 1);
  EXPECT_EQ(cache_.misses(), 1);
}

TEST_F(JitExecTest, BinaryByRowIndexKernel) {
  // Write 100 rows of (int32, float64) binary.
  Schema schema{{"a", DataType::kInt32}, {"b", DataType::kFloat64}};
  std::string data;
  for (int32_t i = 0; i < 100; ++i) {
    double d = i * 1.5;
    data.append(reinterpret_cast<const char*>(&i), 4);
    data.append(reinterpret_cast<const char*>(&d), 8);
  }
  std::string path = Path("t.bin");
  ASSERT_OK(WriteStringToFile(path, data));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));

  PipelineSpec spec = ScanSpec(FileFormat::kBinary, ScanMode::kByRowIndex,
                               {{1, DataType::kFloat64, false}});
  spec.row_width = 12;
  spec.column_offsets = {4};
  ASSERT_OK_AND_ASSIGN(CompiledKernel kernel, cache_.GetOrCompile(spec));

  std::vector<int64_t> wanted = {99, 0, 42};
  std::vector<double> out(3);
  std::vector<int64_t> row_ids(3);
  void* outs[] = {out.data()};
  RawJitContext ctx = {};
  ctx.file_data = file->data();
  ctx.file_size = file->size();
  ctx.max_rows = 3;
  ctx.out_columns = outs;
  ctx.out_row_ids = row_ids.data();
  ctx.in_row_ids = wanted.data();
  ctx.num_inputs = 3;
  ASSERT_EQ(kernel.entry(&ctx), 3);
  EXPECT_DOUBLE_EQ(out[0], 148.5);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 63.0);
  EXPECT_EQ(row_ids[2], 42);
}

TEST_F(JitExecTest, CsvByPositionKernelJumpsAndSkips) {
  // File: 5 int columns. Map tracks column 1; kernel reads columns 2 and 4
  // (skip 1 field to reach col2, then skip 1 more to reach col4).
  std::string path = Path("p.csv");
  CsvWriter writer(path);
  ASSERT_OK(writer.Open());
  for (int i = 0; i < 200; ++i) {
    for (int c = 0; c < 5; ++c) writer.AppendInt32(i * 10 + c);
    writer.EndRow();
  }
  ASSERT_OK(writer.Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));

  // Build positions of column 1 for every row by tokenizing.
  std::vector<uint64_t> col1_pos;
  {
    const char* p = file->data();
    const char* end = p + file->size();
    while (p < end) {
      const char* q = p;
      while (*q != ',') ++q;  // skip col0
      col1_pos.push_back(static_cast<uint64_t>(q + 1 - file->data()));
      const char* nl =
          static_cast<const char*>(memchr(p, '\n', static_cast<size_t>(end - p)));
      p = nl + 1;
    }
  }

  PipelineSpec spec =
      ScanSpec(FileFormat::kCsv, ScanMode::kByPosition,
               {{2, DataType::kInt32, false}, {4, DataType::kInt32, false}});
  spec.anchor_column = 1;
  ASSERT_OK_AND_ASSIGN(CompiledKernel kernel, cache_.GetOrCompile(spec));

  std::vector<int64_t> rows = {0, 7, 199, 42};
  std::vector<uint64_t> positions;
  for (int64_t r : rows) positions.push_back(col1_pos[static_cast<size_t>(r)]);
  std::vector<int32_t> out2(rows.size()), out4(rows.size());
  std::vector<int64_t> row_ids(rows.size());
  void* outs[] = {out2.data(), out4.data()};
  RawJitContext ctx = {};
  ctx.file_data = file->data();
  ctx.file_size = file->size();
  ctx.max_rows = static_cast<int64_t>(rows.size());
  ctx.out_columns = outs;
  ctx.out_row_ids = row_ids.data();
  ctx.in_row_ids = rows.data();
  ctx.in_positions = positions.data();
  ctx.in_position_stride = 1;
  ctx.num_inputs = static_cast<int64_t>(rows.size());
  ASSERT_EQ(kernel.entry(&ctx), 4);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(out2[i], rows[i] * 10 + 2) << i;
    EXPECT_EQ(out4[i], rows[i] * 10 + 4) << i;
    EXPECT_EQ(row_ids[i], rows[i]);
  }
}

TEST_F(JitExecTest, NegativeAndFloatFieldsParseCorrectly) {
  std::string path = Path("neg.csv");
  CsvWriter writer(path);
  ASSERT_OK(writer.Open());
  writer.AppendInt32(-2147483647);
  writer.AppendFloat64(-0.5);
  writer.EndRow();
  writer.AppendInt32(0);
  writer.AppendFloat64(1e300);
  writer.EndRow();
  ASSERT_OK(writer.Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));

  PipelineSpec spec =
      ScanSpec(FileFormat::kCsv, ScanMode::kSequential,
               {{0, DataType::kInt32, false}, {1, DataType::kFloat64, false}});
  ASSERT_OK_AND_ASSIGN(CompiledKernel kernel, cache_.GetOrCompile(spec));
  std::vector<int32_t> ints(2);
  std::vector<double> floats(2);
  std::vector<int64_t> row_ids(2);
  void* outs[] = {ints.data(), floats.data()};
  RawJitContext ctx = {};
  ctx.file_data = file->data();
  ctx.file_size = file->size();
  ctx.max_rows = 2;
  ctx.out_columns = outs;
  ctx.out_row_ids = row_ids.data();
  ASSERT_EQ(kernel.entry(&ctx), 2);
  EXPECT_EQ(ints[0], -2147483647);
  EXPECT_DOUBLE_EQ(floats[0], -0.5);
  EXPECT_DOUBLE_EQ(floats[1], 1e300);
}

TEST_F(JitExecTest, FusedKernelBindsLiteralsAtRunTime) {
  // 100 binary rows of one int32 column holding 0..99.
  std::string data;
  for (int32_t i = 0; i < 100; ++i) {
    data.append(reinterpret_cast<const char*>(&i), sizeof(i));
  }
  const std::string path = Path("lit.bin");
  ASSERT_OK(WriteStringToFile(path, data));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<MmapFile> file, MmapFile::Open(path));

  // COUNT(*), SUM(col0) WHERE col0 < literal: an integer-only TU, linked
  // without the C++ runtime and loaded with RTLD_NOW.
  PipelineSpec spec;
  spec.format = FileFormat::kBinary;
  spec.scan_mode = ScanMode::kSequential;
  spec.row_width = 4;
  spec.column_offsets = {0};
  spec.inputs = {{0, DataType::kInt32, false}};
  spec.predicates = {{0, CompareOp::kLt, Datum::Int32(0)}};
  spec.mode = PipelineOutputMode::kAggregate;
  spec.aggs = {{AggKind::kCount, -1}, {AggKind::kSum, 0}};

  struct Case {
    int32_t literal;
    int64_t count;
    int64_t sum;
  };
  for (const Case& c : {Case{50, 50, 1225}, Case{INT32_MIN, 0, 0},
                        Case{INT32_MAX, 100, 4950}, Case{1, 1, 0}}) {
    spec.predicates[0].literal = Datum::Int32(c.literal);
    ASSERT_OK_AND_ASSIGN(CompiledKernel kernel, cache_.GetOrCompile(spec));
    int64_t count[2] = {0, 0};
    double dacc[2] = {0, 0};
    int64_t iacc[2] = {0, 0};
    uint8_t init[2] = {0, 0};
    RawJitLiteral literal;
    literal.i32 = c.literal;
    RawJitContext ctx = {};
    ctx.file_data = file->data();
    ctx.file_size = file->size();
    ctx.total_rows = 100;
    ctx.max_rows = 64;
    ctx.agg_count = count;
    ctx.agg_dacc = dacc;
    ctx.agg_iacc = iacc;
    ctx.agg_init = init;
    ctx.pred_literals = &literal;
    ASSERT_EQ(kernel.entry(&ctx), 100) << c.literal;
    EXPECT_EQ(count[0], c.count) << c.literal;
    EXPECT_EQ(iacc[1], c.sum) << c.literal;
  }
  EXPECT_EQ(cache_.Stats().compiles, 1);
}

TEST_F(JitExecTest, CompileErrorSurfacesDiagnostics) {
  CcCompiler compiler;
  auto result = compiler.Compile("this is not C++", "bad");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("JIT compilation failed"),
            std::string_view::npos);
}

/// Polls until `cache`'s background compiler is idle, for at most a minute.
bool WaitForBackgroundCompiles(const JitTemplateCache& cache) {
  Stopwatch watch;
  while (cache.Stats().pending > 0) {
    if (watch.ElapsedSeconds() > 60) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST_F(JitExecTest, RequestQueuesOnceAndCompilesInTheBackground) {
  PipelineSpec spec = ScanSpec(FileFormat::kBinary, ScanMode::kSequential,
                               {{1, DataType::kInt64, false}});
  spec.row_width = 16;
  spec.column_offsets = {8};
  EXPECT_EQ(cache_.Request(spec), JitKernelState::kCompiling);
  EXPECT_EQ(cache_.Request(spec), JitKernelState::kCompiling);
  ASSERT_TRUE(WaitForBackgroundCompiles(cache_));
  JitCacheStats stats = cache_.Stats();
  EXPECT_EQ(stats.compiles, 1);  // two requests, one compile
  EXPECT_EQ(stats.background_compiles, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(cache_.Request(spec), JitKernelState::kReady);
  ASSERT_OK_AND_ASSIGN(CompiledKernel kernel, cache_.GetOrCompile(spec));
  EXPECT_EQ(kernel.compile_seconds, 0);  // compiled before anyone waited
  EXPECT_EQ(cache_.Stats().compiles, 1);
}

TEST_F(JitExecTest, BackgroundFailuresAreRememberedPerKey) {
  // No CSV kernel reads by row index.
  PipelineSpec bad = ScanSpec(FileFormat::kCsv, ScanMode::kByRowIndex,
                              {{0, DataType::kInt32, false}});
  EXPECT_EQ(cache_.Request(bad), JitKernelState::kCompiling);
  ASSERT_TRUE(WaitForBackgroundCompiles(cache_));
  EXPECT_EQ(cache_.Stats().failed, 1);
  // Not retried: the request reports the failure without queueing again.
  EXPECT_EQ(cache_.Request(bad), JitKernelState::kFailed);
  EXPECT_EQ(cache_.Stats().pending, 0);
  EXPECT_EQ(cache_.Stats().failed, 1);
  EXPECT_EQ(JitKernelStateReason(JitKernelState::kFailed), "compile failed");
  // A blocking caller still gets the typed error.
  EXPECT_FALSE(cache_.GetOrCompile(bad).ok());
}

TEST_F(JitExecTest, BlockingCallerTakesOverAQueuedCompile) {
  // Queue several compiles, then ask for the last one blocking: it must not
  // wait behind the others.
  std::vector<PipelineSpec> specs;
  for (int c = 0; c < 4; ++c) {
    PipelineSpec spec = ScanSpec(FileFormat::kBinary, ScanMode::kSequential,
                                 {{c, DataType::kInt32, false}});
    spec.row_width = 16;
    spec.column_offsets = {4 * c};
    specs.push_back(spec);
    EXPECT_EQ(cache_.Request(spec), JitKernelState::kCompiling);
  }
  ASSERT_OK_AND_ASSIGN(CompiledKernel kernel, cache_.GetOrCompile(specs[3]));
  EXPECT_NE(kernel.entry, nullptr);
  EXPECT_GT(kernel.compile_seconds, 0);
  ASSERT_TRUE(WaitForBackgroundCompiles(cache_));
  EXPECT_EQ(cache_.Stats().compiles, 4);  // each spec compiled exactly once
}

}  // namespace
}  // namespace raw
