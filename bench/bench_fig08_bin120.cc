// Figure 8: 120-column binary file with floating-point aggregation.
// No conversions: shreds stay competitive with the DBMS over a wide
// selectivity range; the remaining gap at 100% is column building only.

#include "bench/bench_common.h"

namespace raw::bench {
namespace {

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  TableSpec spec = dataset.D120Spec();
  PrintTitle("Figure 8 — 120-column binary, floating-point aggregation");
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
      std::string path = CheckOk(dataset.D120Binary(), "bin");
      CheckOk(engine->RegisterBinary("t", path, spec.ToSchema()), "register");
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
  printf("\nExpect: small absolute times; shreds ~match DBMS for a wide\n"
         "range, modest gap at 100%% (column building).\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
