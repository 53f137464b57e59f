// Ablation: the JIT template cache (§4.2 discussion — amortizing compilation
// by caching generated libraries keyed by kernel spec).
// Measures GetOrCompile() latency for a cold spec vs a cached one.

#include <benchmark/benchmark.h>

#include "engine/formats/builtin.h"
#include "jit/template_cache.h"

namespace raw {
namespace {

PipelineSpec SpecForColumns(int first_col) {
  PipelineSpec spec;
  spec.format = FileFormat::kBinary;
  spec.scan_mode = ScanMode::kSequential;
  spec.row_width = 120;
  for (int c = 0; c < 3; ++c) {
    spec.inputs.push_back(PipelineInput{first_col + c, DataType::kInt32, false});
    spec.projections.push_back(c);
    spec.column_offsets.push_back((first_col + c) * 4);
  }
  return spec;
}

void BM_CompileColdSpec(benchmark::State& state) {
  EnsureBuiltinFormatDriversRegistered();
  JitTemplateCache cache;
  if (!cache.compiler_available()) {
    state.SkipWithError("no external compiler");
    return;
  }
  int next = 0;
  for (auto _ : state) {
    auto kernel = cache.GetOrCompile(SpecForColumns(next++));
    if (!kernel.ok()) {
      state.SkipWithError(kernel.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(kernel->entry);
  }
  state.counters["compile_s_total"] = cache.total_compile_seconds();
}
BENCHMARK(BM_CompileColdSpec)->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_TemplateCacheHit(benchmark::State& state) {
  EnsureBuiltinFormatDriversRegistered();
  JitTemplateCache cache;
  if (!cache.compiler_available()) {
    state.SkipWithError("no external compiler");
    return;
  }
  auto first = cache.GetOrCompile(SpecForColumns(0));
  if (!first.ok()) {
    state.SkipWithError(first.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto kernel = cache.GetOrCompile(SpecForColumns(0));
    benchmark::DoNotOptimize(kernel->entry);
  }
  state.counters["hits"] = static_cast<double>(cache.hits());
}
BENCHMARK(BM_TemplateCacheHit);

}  // namespace
}  // namespace raw

BENCHMARK_MAIN();
