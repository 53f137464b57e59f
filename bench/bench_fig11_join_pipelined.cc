// Figure 11: join with the projected column on the probe ("pipelined") side.
//   SELECT MAX(f1.col10) FROM f1 JOIN f2 ON f1.col0 = f2.col0
//   WHERE f2.col1 < X
// f2 is a shuffled copy of f1. Join keys and f2.col1 are cached by priming
// queries (the paper assumes them loaded). Compared: Early (read col10 with
// the base scan) vs Late (fetch after the join, pipelined order) vs DBMS.
// Paper result: Late <= Early, converging at high selectivity — the probe
// side preserves row order, so late fetches stay near-sequential.

#include "bench/bench_common.h"

namespace raw::bench {
namespace {

std::unique_ptr<RawEngine> JoinEngine(Dataset* dataset) {
  auto engine = std::make_unique<RawEngine>();
  TableSpec spec = dataset->D30Spec();
  std::string f1 = CheckOk(dataset->D30Csv(), "f1");
  std::string f2 = CheckOk(dataset->D30CsvShuffled(), "f2");
  CheckOk(engine->RegisterCsv("f1", f1, spec.ToSchema(), CsvOptions(), 10),
          "f1");
  CheckOk(engine->RegisterCsv("f2", f2, spec.ToSchema(), CsvOptions(), 10),
          "f2");
  return engine;
}

void Prime(Session* session, const PlannerOptions& options) {
  // Cache f1.col0 and f2.col0/f2.col1, building both positional maps.
  PlannerOptions full = options;
  full.shred_policy = ShredPolicy::kFullColumns;
  TimedQuery(session, "SELECT COUNT(*) FROM f1 WHERE col0 >= 0", full);
  TimedQuery(session,
             "SELECT COUNT(*) FROM f2 WHERE col0 >= 0 AND col1 >= 0", full);
}

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  TableSpec spec = dataset.D30Spec();
  PrintTitle("Figure 11 — join, projected column on the pipelined side");
  printf("rows=%lld per file\n", static_cast<long long>(dataset.d30_rows()));
  PrintSeriesHeader("placement", sels);

  struct Row {
    std::string name;
    AccessPathKind access;
    JoinProjectionPlacement placement;
  } systems[] = {
      {"Early", AccessPathKind::kJit, JoinProjectionPlacement::kEarly},
      {"Late", AccessPathKind::kJit, JoinProjectionPlacement::kLate},
      {"DBMS", AccessPathKind::kLoaded, JoinProjectionPlacement::kEarly},
  };
  for (const Row& system : systems) {
    std::vector<double> row;
    for (double sel : sels) {
      auto engine = JoinEngine(&dataset);
      auto session = engine->OpenSession();
      PlannerOptions options;
      options.access_path = system.access;
      options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
      if (system.access == AccessPathKind::kJit &&
          !engine->Stats().jit_compiler_available()) {
        options.access_path = AccessPathKind::kInSitu;
      }
      options.join_placement = system.placement;
      // Prime every system: raw paths cache keys/predicate columns and the
      // positional maps; the DBMS loads its tables (the paper's reference
      // has data loaded before this experiment).
      Prime(session.get(), options);
      Datum lit = spec.SelectivityLiteral(1, sel);
      std::string q =
          "SELECT MAX(f1.col10) FROM f1 JOIN f2 ON f1.col0 = f2.col0 WHERE "
          "f2.col1 < " +
          lit.ToString();
      row.push_back(TimedQuery(session.get(), q, options));
    }
    PrintSeriesRow(system.name, row, sels);
  }
  printf("\nExpect: Late <= Early at low selectivity, converging as it\n"
         "rises; join cost masks much of the raw-access cost (Fig. 11).\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
