// Figure 6: full vs shredded columns over the binary file, second query.
// Same shape as Figure 5 without conversion costs.

#include "bench/bench_common.h"

namespace raw::bench {
namespace {

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  PrintTitle("Figure 6 — full vs shredded columns, binary 2nd query");
  printf("rows=%lld  query: %s\n", static_cast<long long>(dataset.d30_rows()),
         Q2(&dataset, 0.5).c_str());
  PrintSeriesHeader("system", sels);

  struct Row {
    std::string name;
    ShredPolicy policy;
  } systems[] = {
      {"Full", ShredPolicy::kFullColumns},
      {"Shreds", ShredPolicy::kShreds},
  };
  for (const Row& system : systems) {
    PlannerOptions options;
    options.access_path = AccessPathKind::kJit;
    options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
    options.shred_policy = system.policy;
    std::vector<double> row;
    bool skipped = false;
    for (double sel : sels) {
      auto engine = D30BinEngine(&dataset);
      auto session = engine->OpenSession();
      if (!engine->Stats().jit_compiler_available()) {
        options.access_path = AccessPathKind::kInSitu;
      }
      TimedQuery(session.get(), Q1(&dataset, sel), options);
      row.push_back(TimedQuery(session.get(), Q2(&dataset, sel), options));
    }
    if (skipped) continue;
    PrintSeriesRow(system.name, row, sels);
  }
  printf("\nExpect: Shreds <= Full, equal at 100%% selectivity.\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
