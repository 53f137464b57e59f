// Ablation: positional-map tracking stride (§2.3's trade-off: positions
// tracked vs. future tokenizing/parsing saved).
//   Q1 warms and builds the map with the given stride; Q2 reads col10.
// Small strides place a jump target on (or right before) every column but
// cost more map memory and bookkeeping during Q1; large strides force long
// incremental parses during Q2.

#include "bench/bench_common.h"
#include "common/string_util.h"

namespace raw::bench {
namespace {

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  PrintTitle("Ablation — positional map stride vs Q2 latency (CSV)");
  printf("rows=%lld  Q2: %s\n", static_cast<long long>(dataset.d30_rows()),
         Q2(&dataset, 0.5).c_str());
  printf("%-8s %12s %12s %14s\n", "stride", "Q1 (build)", "Q2 (use)",
         "map memory");

  for (int stride : {1, 2, 5, 7, 10, 15, 30}) {
    auto engine = D30CsvEngine(&dataset, stride);
    auto session = engine->OpenSession();
    PlannerOptions options;
    options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
    options.access_path = engine->Stats().jit_compiler_available()
                              ? AccessPathKind::kJit
                              : AccessPathKind::kInSitu;
    options.shred_policy = ShredPolicy::kFullColumns;
    double q1 = TimedQuery(session.get(), Q1(&dataset, 0.5), options);
    double q2 = TimedQuery(session.get(), Q2(&dataset, 0.5), options);
    int64_t bytes = engine->Stats().table("t")->pmap_bytes;
    printf("%-8d %11.3fs %11.3fs %14s\n", stride, q1, q2,
           HumanBytes(static_cast<uint64_t>(bytes)).c_str());
  }
  printf("\nExpect: Q2 fastest when a tracked column lands on/near col10\n"
         "(stride <= 10); map memory shrinks with stride; Q1 pays for\n"
         "denser tracking.\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
