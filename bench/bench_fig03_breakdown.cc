// Figure 3: breakdown of query execution costs, InSitu vs JIT, warm CSV,
// 40% selectivity, query SELECT MAX(col0) WHERE col0 < X.
//
// The interpreted scan attributes time to main-loop bookkeeping, tokenizing/
// parsing, data-type conversion and column building. The JIT kernel fuses
// the first three into generated code (reported as "kernel"); building the
// columnar output remains — the irreducible cost column shreds then attack.

#include "bench/bench_common.h"
#include "columnar/aggregate.h"
#include "columnar/filter.h"
#include "common/mmap_file.h"
#include "engine/formats/builtin.h"
#include "scan/insitu_csv_scan.h"
#include "scan/fused_pipeline.h"

namespace raw::bench {
namespace {

void PrintBreakdown(const char* name, const ScanProfile& profile) {
  double total = profile.total_seconds();
  printf("%-10s total=%7.3fs | main-loop %6.1f%% | parse %6.1f%% | "
         "convert %6.1f%% | build-cols %6.1f%% | fused-kernel %6.1f%%\n",
         name, total, 100 * profile.main_loop.total_seconds() / total,
         100 * profile.parsing.total_seconds() / total,
         100 * profile.conversion.total_seconds() / total,
         100 * profile.build_columns.total_seconds() / total,
         100 * profile.kernel.total_seconds() / total);
}

void Run() {
  EnsureBuiltinFormatDriversRegistered();  // JIT codegen needs the registry
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  PrintTitle("Figure 3 — cost breakdown of raw-data access (InSitu vs JIT)");
  TableSpec spec = dataset.D30Spec();
  std::string path = CheckOk(dataset.D30Csv(), "csv");
  std::unique_ptr<MmapFile> file = CheckOk(MmapFile::Open(path), "mmap");
  Datum lit = spec.SelectivityLiteral(0, 0.4);

  // Warm the page cache once.
  {
    CsvScanSpec warm;
    warm.file_schema = spec.ToSchema();
    warm.outputs = {0};
    InsituCsvScanOperator scan(file.get(), warm);
    CheckOk(CollectAll(&scan).status(), "warm-up");
  }

  // Interpreted scan with phase instrumentation.
  ScanProfile insitu_profile;
  {
    CsvScanSpec sspec;
    sspec.file_schema = spec.ToSchema();
    sspec.outputs = {0};
    sspec.profile = &insitu_profile;
    auto scan = std::make_unique<InsituCsvScanOperator>(file.get(), sspec);
    auto filter = std::make_unique<FilterOperator>(
        std::move(scan), Cmp(CompareOp::kLt, Col(0), Lit(lit)));
    std::vector<AggSpec> specs = {{AggKind::kMax, 0, "m"}};
    AggregateOperator agg(std::move(filter), specs);
    CheckOk(CollectAll(&agg).status(), "insitu pipeline");
  }
  PrintBreakdown("InSitu", insitu_profile);

  // JIT scan: fused kernel + host-side column building.
  JitTemplateCache cache;
  if (!cache.compiler_available()) {
    printf("JIT        (skipped: no compiler)\n");
    return;
  }
  ScanProfile jit_profile;
  {
    FusedPipelineArgs args;
    args.spec.format = FileFormat::kCsv;
    args.spec.scan_mode = ScanMode::kSequential;
    args.spec.inputs = {{0, DataType::kInt32, false}};
    args.spec.projections = {0};
    args.output_schema = Schema{{"col0", DataType::kInt32}};
    args.file = file.get();
    args.profile = &jit_profile;
    auto scan =
        std::make_unique<FusedPipelineOperator>(&cache, std::move(args));
    auto filter = std::make_unique<FilterOperator>(
        std::move(scan), Cmp(CompareOp::kLt, Col(0), Lit(lit)));
    std::vector<AggSpec> specs = {{AggKind::kMax, 0, "m"}};
    AggregateOperator agg(std::move(filter), specs);
    CheckOk(CollectAll(&agg).status(), "jit pipeline");
  }
  PrintBreakdown("JIT", jit_profile);
  printf("\nExpect: JIT total well below InSitu; InSitu dominated by parsing\n"
         "+ conversion + loop overhead; JIT leaves mostly fused-kernel time\n"
         "with column building as the remaining host cost (paper Fig. 3).\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
