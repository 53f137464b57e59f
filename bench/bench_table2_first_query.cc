// Table 2: first-query execution time over the 120-column mixed-type table
// (paper: CSV 380s DBMS vs 216s full/shreds; binary 42s vs 22s).
//   Q1: SELECT MAX(col0) FROM t WHERE col0 < X   (50% selectivity)
// DBMS loads *every* column up front; full columns and shreds read only what
// the query needs (and are identical for Q1, which touches one column).

#include "bench/bench_common.h"
#include "common/stopwatch.h"

namespace raw::bench {
namespace {

void RunFormat(Dataset* dataset, bool csv) {
  TableSpec spec = dataset->D120Spec();
  Datum lit = spec.SelectivityLiteral(0, 0.5);
  std::string sql = "SELECT MAX(col0) FROM t WHERE col0 < " + lit.ToString();

  struct Row {
    const char* name;
    AccessPathKind access;
    ShredPolicy policy;
  } rows[] = {
      {"DBMS", AccessPathKind::kLoaded, ShredPolicy::kFullColumns},
      {"FullColumns", AccessPathKind::kJit, ShredPolicy::kFullColumns},
      {"ColumnShreds", AccessPathKind::kJit, ShredPolicy::kShreds},
  };
  for (const Row& row : rows) {
    auto engine = std::make_unique<RawEngine>();
    auto session = engine->OpenSession();
    if (csv) {
      std::string path = CheckOk(dataset->D120Csv(), "d120 csv");
      CheckOk(engine->RegisterCsv("t", path, spec.ToSchema()), "register");
    } else {
      std::string path = CheckOk(dataset->D120Binary(), "d120 bin");
      CheckOk(engine->RegisterBinary("t", path, spec.ToSchema()), "register");
    }
    PlannerOptions options;
    options.access_path = row.access;
    options.jit_fusion = JitFusion::kOn;  // JIT paths wait for the compiler
    options.shred_policy = row.policy;
    if (row.access == AccessPathKind::kJit &&
        !engine->Stats().jit_compiler_available()) {
      options.access_path = AccessPathKind::kInSitu;
    }
    CheckOk(engine->DropFilePageCache("t"), "drop");
    double compile = 0;
    double seconds = TimedQuery(session.get(), sql, options, &compile);
    PrintKeyValue(std::string(csv ? "CSV    " : "Binary ") + row.name, seconds);
  }
}

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  PrintTitle("Table 2 — 1st query over the 120-column table");
  printf("rows=%lld, 120 columns (int32/float64 interleaved)\n",
         static_cast<long long>(dataset.d120_rows()));
  RunFormat(&dataset, /*csv=*/true);
  RunFormat(&dataset, /*csv=*/false);
  printf("\nExpect: DBMS markedly slower on both formats (loads all 120\n"
         "columns); Full == Shreds for the 1st query; CSV slower than binary\n"
         "(conversion cost + larger file).\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
