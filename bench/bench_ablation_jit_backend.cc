// Ablation: generated vs interpreted scan kernels per format (§4.1 — the
// branch-elimination gains of unrolled, schema-aware generated code),
// isolated from the planner and caches.

#include <benchmark/benchmark.h>

#include "common/mmap_file.h"
#include "engine/formats/builtin.h"
#include "common/temp_dir.h"
#include "scan/insitu_bin_scan.h"
#include "scan/insitu_csv_scan.h"
#include "scan/fused_pipeline.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

struct Fixture {
  TempDir dir;
  TableSpec spec;
  std::unique_ptr<MmapFile> csv;
  std::unique_ptr<BinaryReader> bin;
  JitTemplateCache cache;

  Fixture()
      : dir(std::move(*TempDir::Create("raw_ab_"))),
        spec(TableSpec::UniformInt32("a", 30, 200000, 3)) {
    EnsureBuiltinFormatDriversRegistered();  // JIT codegen needs the registry
    if (!WriteCsvFile(spec, dir.FilePath("a.csv")).ok()) abort();
    if (!WriteBinaryFile(spec, dir.FilePath("a.bin")).ok()) abort();
    csv = std::move(*MmapFile::Open(dir.FilePath("a.csv")));
    auto layout = BinaryLayout::Create(spec.ToSchema());
    bin = std::move(*BinaryReader::Open(dir.FilePath("a.bin"), *layout));
  }
};

Fixture& GetFixture() {
  static Fixture* kFixture = new Fixture();
  return *kFixture;
}

void BM_CsvInterpreted(benchmark::State& state) {
  Fixture& fx = GetFixture();
  for (auto _ : state) {
    CsvScanSpec spec;
    spec.file_schema = fx.spec.ToSchema();
    spec.outputs = {0, 10};
    InsituCsvScanOperator scan(fx.csv.get(), spec);
    auto out = CollectAll(&scan);
    if (!out.ok()) state.SkipWithError("scan failed");
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * fx.spec.rows);
}
BENCHMARK(BM_CsvInterpreted)->Unit(benchmark::kMillisecond);

void BM_CsvJit(benchmark::State& state) {
  Fixture& fx = GetFixture();
  if (!fx.cache.compiler_available()) {
    state.SkipWithError("no compiler");
    return;
  }
  const Schema out_schema{{"c0", DataType::kInt32}, {"c10", DataType::kInt32}};
  PipelineSpec jspec = PipelineSpecFor(
      ProjectionRequest(fx.spec.ToSchema(), {0, 10}, out_schema));
  jspec.format = FileFormat::kCsv;
  jspec.scan_mode = ScanMode::kSequential;
  // Compile outside the timed region (template cache would anyway).
  if (!fx.cache.GetOrCompile(jspec).ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  for (auto _ : state) {
    FusedPipelineArgs args;
    args.spec = jspec;
    args.output_schema = out_schema;
    args.file = fx.csv.get();
    FusedPipelineOperator scan(&fx.cache, std::move(args));
    auto out = CollectAll(&scan);
    if (!out.ok()) state.SkipWithError("scan failed");
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * fx.spec.rows);
}
BENCHMARK(BM_CsvJit)->Unit(benchmark::kMillisecond);

void BM_BinInterpreted(benchmark::State& state) {
  Fixture& fx = GetFixture();
  for (auto _ : state) {
    BinScanSpec spec;
    spec.outputs = {0, 10};
    InsituBinScanOperator scan(fx.bin.get(), spec);
    auto out = CollectAll(&scan);
    if (!out.ok()) state.SkipWithError("scan failed");
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * fx.spec.rows);
}
BENCHMARK(BM_BinInterpreted)->Unit(benchmark::kMillisecond);

void BM_BinJit(benchmark::State& state) {
  Fixture& fx = GetFixture();
  if (!fx.cache.compiler_available()) {
    state.SkipWithError("no compiler");
    return;
  }
  auto layout = BinaryLayout::Create(fx.spec.ToSchema());
  const Schema out_schema{{"c0", DataType::kInt32}, {"c10", DataType::kInt32}};
  PipelineSpec jspec = PipelineSpecFor(
      ProjectionRequest(fx.spec.ToSchema(), {0, 10}, out_schema));
  jspec.format = FileFormat::kBinary;
  jspec.scan_mode = ScanMode::kSequential;
  jspec.row_width = layout->row_width();
  jspec.column_offsets = {layout->ColumnOffset(0), layout->ColumnOffset(10)};
  if (!fx.cache.GetOrCompile(jspec).ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  for (auto _ : state) {
    FusedPipelineArgs args;
    args.spec = jspec;
    args.output_schema = out_schema;
    args.file = fx.bin->file();
    args.rows = ScanRange::Rows(0, fx.bin->num_rows());
    FusedPipelineOperator scan(&fx.cache, std::move(args));
    auto out = CollectAll(&scan);
    if (!out.ok()) state.SkipWithError("scan failed");
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * fx.spec.rows);
}
BENCHMARK(BM_BinJit)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace raw

BENCHMARK_MAIN();
