// JSONL scans through the pluggable format driver: the same D30 data as
// Figures 1a/1b, read as line-delimited JSON.
//   Q1 (cold):  SELECT MAX(col0)  FROM t WHERE col0 < X — full parse, builds
//               the field-offset map (the JSON generalization of the CSV
//               positional map).
//   Q2 (warm):  SELECT MAX(col10) FROM t WHERE col0 < X — jumps straight to
//               mapped value offsets.
//   Q3 (warm, untracked): SELECT MAX(col15) FROM t WHERE col0 < X — col15 is
//               not in the map (stride 10); the writer lists keys in schema
//               order, so the scan walks from the mapped col10 value across
//               five keys instead of parsing the whole 30-key object.
// Expect: cold JSONL slower than cold CSV (key matching + escape handling);
// the warm/cold gap mirrors the CSV positional-map speedup.

#include "bench/bench_common.h"

namespace raw::bench {
namespace {

std::unique_ptr<RawEngine> JsonlEngine(Dataset* dataset) {
  auto engine = std::make_unique<RawEngine>();
  std::string path = CheckOk(dataset->D30Jsonl(), "D30 jsonl");
  CheckOk(engine->RegisterJsonl("t", path, dataset->D30Spec().ToSchema()),
          "register jsonl");
  return engine;
}

void Run() {
  Dataset dataset = CheckOk(Dataset::Open(), "dataset");
  std::vector<double> sels = Selectivities();
  PrintTitle("JSONL scans — cold (field-offset map build) vs warm");
  printf("rows=%lld  num_threads=%d  query: %s\n",
         static_cast<long long>(dataset.d30_rows()), BenchNumThreads(),
         Q2(&dataset, 0.5).c_str());
  PrintSeriesHeader("series", sels);

  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;

  std::vector<double> cold;
  std::vector<double> warm;
  std::vector<double> warm_untracked;
  for (double sel : sels) {
    auto engine = JsonlEngine(&dataset);
    auto session = engine->OpenSession();
    cold.push_back(TimedQuery(session.get(), Q1(&dataset, sel), options));
    warm.push_back(TimedQuery(session.get(), Q2(&dataset, sel), options));
    const std::string q3 =
        "SELECT MAX(col15) FROM t WHERE col0 < " +
        dataset.D30Spec().SelectivityLiteral(0, sel).ToString();
    warm_untracked.push_back(TimedQuery(session.get(), q3, options));
  }
  PrintSeriesRow("Jsonl-cold", cold, sels);
  PrintSeriesRow("Jsonl-warm", warm, sels);
  PrintSeriesRow("Jsonl-warm-untracked", warm_untracked, sels);

  printf("\nExpect: warm well under cold (offset map skips key matching);\n"
         "RAW_NUM_THREADS=1 vs =4 shows the byte-morsel parallel speedup.\n");
  printf("Expect: Jsonl-warm-untracked well under cold too: it walks from the\n"
         "mapped col10 value to col15, checking five keys, instead of parsing\n"
         "the whole object.\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
