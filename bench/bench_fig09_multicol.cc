// Figure 9: speculative multi-column shreds (§5.3.1).
//   Timed query: SELECT MAX(col5) FROM t WHERE col0 < X AND col4 < X
// Setup matches the paper: a positional map exists (tracking columns 0 and 9;
// the paper's 1-based {1,10}) and col0 is cached by a previous query.
// Compared: full columns / one-shred-at-a-time / multi-column shreds (col4
// and col5 fetched together in one pass).

#include "bench/bench_common.h"

namespace raw::bench {
namespace {

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  TableSpec spec = dataset.D30Spec();
  PrintTitle("Figure 9 — full vs shreds vs multi-column shreds (CSV)");
  printf("rows=%lld  query: SELECT MAX(col5) WHERE col0 < X AND col4 < X\n",
         static_cast<long long>(dataset.d30_rows()));
  PrintSeriesHeader("system", sels);

  struct Row {
    std::string name;
    ShredPolicy policy;
  } systems[] = {
      {"Full", ShredPolicy::kFullColumns},
      {"Shreds", ShredPolicy::kShreds},
      {"MultiColumnShreds", ShredPolicy::kMultiColumnShreds},
  };
  for (const Row& system : systems) {
    std::vector<double> row;
    for (double sel : sels) {
      // Stride 9 tracks columns {0, 9, 18, 27}: jumps land on column 0 and
      // incremental parsing reaches columns 4-5, as in the paper's setup.
      auto engine = D30CsvEngine(&dataset, /*stride=*/9);
      auto session = engine->OpenSession();
      PlannerOptions options;
      options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
      options.access_path = engine->Stats().jit_compiler_available()
                                ? AccessPathKind::kJit
                                : AccessPathKind::kInSitu;
      options.shred_policy = system.policy;
      // Priming query: builds the positional map and caches col0.
      TimedQuery(session.get(), Q1(&dataset, 1.0), options);
      Datum lit = spec.SelectivityLiteral(0, sel);
      std::string q = "SELECT MAX(col5) FROM t WHERE col0 < " +
                      lit.ToString() + " AND col4 < " + lit.ToString();
      options.shred_policy = system.policy;
      row.push_back(TimedQuery(session.get(), q, options));
    }
    PrintSeriesRow(system.name, row, sels);
  }
  printf("\nExpect: single-column shreds win below ~40%% selectivity; above\n"
         "that the repeated incremental parsing dominates and multi-column\n"
         "shreds (one pass for col4+col5) give the best of both (Fig. 9).\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
