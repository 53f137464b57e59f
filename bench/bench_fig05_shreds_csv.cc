// Figure 5: full vs shredded columns, CSV, second query, selectivity sweep.
//   Q1 (warm-up): SELECT MAX(col0)  WHERE col0 < X
//   Q2 (timed):   SELECT MAX(col10) WHERE col0 < X
// Paper result: shreds always <= full (up to ~6x at low selectivity since
// only qualifying col10 elements are fetched); the Col7 variants pay
// incremental parsing; DBMS is flat.

#include "bench/bench_common.h"

namespace raw::bench {
namespace {

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  PrintTitle("Figure 5 — full vs shredded columns, CSV 2nd query");
  printf("rows=%lld  query: %s\n", static_cast<long long>(dataset.d30_rows()),
         Q2(&dataset, 0.5).c_str());
  PrintSeriesHeader("system", sels);

  struct Row {
    std::string name;
    AccessPathKind access;
    ShredPolicy policy;
    int stride;
  } systems[] = {
      {"Full", AccessPathKind::kJit, ShredPolicy::kFullColumns, 10},
      {"Shreds", AccessPathKind::kJit, ShredPolicy::kShreds, 10},
      {"Full-Col7", AccessPathKind::kJit, ShredPolicy::kFullColumns, 7},
      {"Shreds-Col7", AccessPathKind::kJit, ShredPolicy::kShreds, 7},
      {"DBMS", AccessPathKind::kLoaded, ShredPolicy::kFullColumns, 10},
  };

  for (const Row& system : systems) {
    PlannerOptions options;
    options.access_path = system.access;
    options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
    options.shred_policy = system.policy;
    std::vector<double> row;
    bool skipped = false;
    for (double sel : sels) {
      auto engine = D30CsvEngine(&dataset, system.stride);
      auto session = engine->OpenSession();
      if (system.access == AccessPathKind::kJit &&
          !engine->Stats().jit_compiler_available()) {
        skipped = true;
        break;
      }
      TimedQuery(session.get(), Q1(&dataset, sel), options);
      row.push_back(TimedQuery(session.get(), Q2(&dataset, sel), options));
    }
    if (skipped) {
      printf("%-28s (skipped: no compiler)\n", system.name.c_str());
    } else {
      PrintSeriesRow(system.name, row, sels);
    }
  }
  printf("\nExpect: Shreds <= Full everywhere, converging at 100%%; Col7\n"
         "variants uniformly more expensive; DBMS flat.\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
