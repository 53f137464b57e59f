// Figure 12: join with the projected column on the build
// ("pipeline-breaking") side.
//   SELECT MAX(f2.col10) FROM f1 JOIN f2 ON f1.col0 = f2.col0
//   WHERE f2.col1 < X
// The join shuffles build-side provenance, so a Late fetch of f2.col10 reads
// the raw file at random positions. Compared: Early / Intermediate (after
// f2's filter, before the join) / Late / DBMS.
// Paper result: Late degrades as selectivity grows (random access overrides
// the benefit of fetching fewer values); Intermediate sits between; Early is
// stable.

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

void Prime(Session* session, PlannerOptions options) {
  options.shred_policy = ShredPolicy::kFullColumns;
  TimedQuery(session, "SELECT COUNT(*) FROM f1 WHERE col0 >= 0", options);
  TimedQuery(session,
             "SELECT COUNT(*) FROM f2 WHERE col0 >= 0 AND col1 >= 0", options);
}

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  TableSpec spec = dataset.D30Spec();
  PrintTitle("Figure 12 — join, projected column on the breaking side");
  printf("rows=%lld per file\n", static_cast<long long>(dataset.d30_rows()));
  PrintSeriesHeader("placement", sels);

  struct Row {
    std::string name;
    AccessPathKind access;
    JoinProjectionPlacement placement;
  } systems[] = {
      {"Early", AccessPathKind::kJit, JoinProjectionPlacement::kEarly},
      {"Intermediate", AccessPathKind::kJit,
       JoinProjectionPlacement::kIntermediate},
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
      // Prime every system (DBMS included: loading happens here, matching
      // the paper's already-loaded reference).
      Prime(session.get(), options);
      Datum lit = spec.SelectivityLiteral(1, sel);
      std::string q =
          "SELECT MAX(f2.col10) FROM f1 JOIN f2 ON f1.col0 = f2.col0 WHERE "
          "f2.col1 < " +
          lit.ToString();
      row.push_back(TimedQuery(session.get(), q, options));
    }
    PrintSeriesRow(system.name, row, sels);
  }
  printf("\nExpect: Late wins only at low selectivity, then degrades below\n"
         "Early (random raw-file access); Intermediate in between (Fig 12).\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
