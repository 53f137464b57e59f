// Figure 7: 120-column CSV with floating-point aggregation, 2nd query sweep.
//   Q1 (warm-up): SELECT MAX(col0)  WHERE col0 < X   (int predicate column)
//   Q2 (timed):   SELECT MAX(col11) WHERE col0 < X   (float64 column)
// Paper result: float conversion makes the raw-access curves steep; DBMS
// (pre-converted) is clearly fastest; shreds only competitive at low
// selectivity.

#include "bench/bench_common.h"

namespace raw::bench {
namespace {

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  TableSpec spec = dataset.D120Spec();
  PrintTitle("Figure 7 — 120-column CSV, floating-point aggregation");
  printf("rows=%lld\n", static_cast<long long>(dataset.d120_rows()));
  PrintSeriesHeader("system", sels);

  struct Row {
    std::string name;
    AccessPathKind access;
    ShredPolicy policy;
  } systems[] = {
      {"DBMS", AccessPathKind::kLoaded, ShredPolicy::kFullColumns},
      {"FullColumns", AccessPathKind::kJit, ShredPolicy::kFullColumns},
      {"ColumnShreds", AccessPathKind::kJit, ShredPolicy::kShreds},
  };
  for (const Row& system : systems) {
    std::vector<double> row;
    for (double sel : sels) {
      auto engine = std::make_unique<RawEngine>();
      auto session = engine->OpenSession();
      std::string path = CheckOk(dataset.D120Csv(), "csv");
      CheckOk(engine->RegisterCsv("t", path, spec.ToSchema()), "register");
      PlannerOptions options;
      options.access_path = system.access;
      options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
      options.shred_policy = system.policy;
      if (system.access == AccessPathKind::kJit &&
          !engine->Stats().jit_compiler_available()) {
        options.access_path = AccessPathKind::kInSitu;
      }
      Datum lit = spec.SelectivityLiteral(0, sel);
      std::string q1 = "SELECT MAX(col0) FROM t WHERE col0 < " + lit.ToString();
      std::string q2 =
          "SELECT MAX(col11) FROM t WHERE col0 < " + lit.ToString();
      TimedQuery(session.get(), q1, options);
      row.push_back(TimedQuery(session.get(), q2, options));
    }
    PrintSeriesRow(system.name, row, sels);
  }
  printf("\nExpect: DBMS flat and fastest; shreds track DBMS only at low\n"
         "selectivity, then rise steeply (float conversion cost).\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
