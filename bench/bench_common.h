#ifndef RAW_BENCH_BENCH_COMMON_H_
#define RAW_BENCH_BENCH_COMMON_H_

// Shared harness for the paper-reproduction benchmarks: dataset plumbing,
// engine factories for each compared system, and fixed-width table printing
// so every binary emits the rows/series of its paper figure.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/raw_engine.h"
#include "workload/dataset.h"

namespace raw::bench {

/// Selectivities swept by the figure benchmarks (fractions).
inline std::vector<double> Selectivities() {
  return {0.01, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
}

/// The scan/aggregation thread count every engine in this process will use
/// (PlannerOptions::num_threads stays 0 = auto in the benches, so this is
/// $RAW_NUM_THREADS when set, else hardware concurrency). Benches print it:
/// comparing a RAW_NUM_THREADS=1 run against =4 measures the morsel-parallel
/// speedup on otherwise identical queries.
inline int BenchNumThreads() { return ResolveNumThreads(0); }

inline void PrintTitle(const std::string& title) {
  printf("\n=== %s ===\n", title.c_str());
}

/// When $RAW_BENCH_JSON names a file, every datapoint printed through
/// PrintSeriesRow / PrintKeyValue (plus explicit calls) is also appended
/// there as one JSON object per line — the machine-readable trail the
/// nightly benchmark workflow diffs across runs. Keys must not contain
/// quotes or backslashes (bench/series names never do).
inline void RecordJson(const std::string& key, double seconds) {
  static const char* path = std::getenv("RAW_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  FILE* f = fopen(path, "a");
  if (f == nullptr) return;
  fprintf(f, "{\"key\": \"%s\", \"seconds\": %.6f}\n", key.c_str(), seconds);
  fclose(f);
}

inline void PrintSeriesHeader(const std::string& first_col,
                              const std::vector<double>& sels) {
  printf("%-28s", first_col.c_str());
  for (double s : sels) printf("%9.0f%%", s * 100);
  printf("\n");
}

inline void PrintSeriesRow(const std::string& name,
                           const std::vector<double>& seconds) {
  printf("%-28s", name.c_str());
  for (double s : seconds) printf("%9.3fs", s);
  printf("\n");
  for (size_t i = 0; i < seconds.size(); ++i) {
    RecordJson(name + "#" + std::to_string(i), seconds[i]);
  }
}

/// Series variant with self-identifying JSON keys: datapoints are keyed by
/// the swept selectivity ("name@40%"), not the position, so editing a
/// bench's selectivity list cannot silently misalign the nightly diff.
inline void PrintSeriesRow(const std::string& name,
                           const std::vector<double>& seconds,
                           const std::vector<double>& sels) {
  printf("%-28s", name.c_str());
  for (double s : seconds) printf("%9.3fs", s);
  printf("\n");
  for (size_t i = 0; i < seconds.size() && i < sels.size(); ++i) {
    char label[32];
    snprintf(label, sizeof(label), "@%g%%", sels[i] * 100);
    RecordJson(name + label, seconds[i]);
  }
}

inline void PrintKeyValue(const std::string& key, double seconds) {
  printf("%-40s %9.3fs\n", key.c_str(), seconds);
  RecordJson(key, seconds);
}

/// Dies with a message when a Status is not OK (benchmarks are scripts; any
/// failure should be loud).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    exit(1);
  }
}

template <typename T>
T CheckOk(StatusOr<T> value, const char* what) {
  CheckOk(value.status(), what);
  if (!value.ok()) exit(1);
  return std::move(value).value();
}

/// Engine preset for one compared "system".
struct SystemConfig {
  std::string name;
  PlannerOptions options;
  int pmap_stride = 10;  // CSV tracking stride for this system
};

/// The §4 access-path line-up (Figures 1-2): full columns everywhere, the
/// access path is the independent variable. Stride 10 tracks the aggregated
/// column (col10) exactly; stride 7 forces nearest-position + incremental
/// parse — the paper's "Column 7" variants.
inline std::vector<SystemConfig> AccessPathSystems(bool include_external) {
  std::vector<SystemConfig> systems;
  auto add = [&](std::string name, AccessPathKind kind, int stride) {
    SystemConfig config;
    config.name = std::move(name);
    config.options.access_path = kind;
    // JIT systems wait for the compiler, as the figures measure them.
    config.options.jit_fusion = JitFusion::kOn;
    config.options.shred_policy = ShredPolicy::kFullColumns;
    config.pmap_stride = stride;
    systems.push_back(std::move(config));
  };
  add("DBMS", AccessPathKind::kLoaded, 10);
  if (include_external) add("ExternalTables", AccessPathKind::kExternalTable, 10);
  add("InSitu", AccessPathKind::kInSitu, 10);
  add("JIT", AccessPathKind::kJit, 10);
  add("InSitu-Col7", AccessPathKind::kInSitu, 7);
  add("JIT-Col7", AccessPathKind::kJit, 7);
  return systems;
}

/// Registers the D30 CSV table as "t" on a fresh engine.
inline std::unique_ptr<RawEngine> D30CsvEngine(Dataset* dataset, int stride) {
  auto engine = std::make_unique<RawEngine>();
  std::string path = CheckOk(dataset->D30Csv(), "D30 csv");
  CheckOk(engine->RegisterCsv("t", path, dataset->D30Spec().ToSchema(),
                              CsvOptions(), stride),
          "register csv");
  return engine;
}

inline std::unique_ptr<RawEngine> D30BinEngine(Dataset* dataset) {
  auto engine = std::make_unique<RawEngine>();
  std::string path = CheckOk(dataset->D30Binary(), "D30 bin");
  CheckOk(engine->RegisterBinary("t", path, dataset->D30Spec().ToSchema()),
          "register bin");
  return engine;
}

/// Paper queries (0-based columns: the paper's col1/col11 are col0/col10).
inline std::string Q1(Dataset* dataset, double selectivity) {
  Datum lit = dataset->D30Spec().SelectivityLiteral(0, selectivity);
  return "SELECT MAX(col0) FROM t WHERE col0 < " + lit.ToString();
}

inline std::string Q2(Dataset* dataset, double selectivity) {
  Datum lit = dataset->D30Spec().SelectivityLiteral(0, selectivity);
  return "SELECT MAX(col10) FROM t WHERE col0 < " + lit.ToString();
}

/// Runs `sql` through a client session, returning wall seconds minus JIT
/// compilation (compilation is amortized by the template cache across
/// queries in a session; reporting it separately mirrors the paper's
/// treatment, which charges it once to the first query and caches
/// thereafter).
inline double TimedQuery(Session* session, const std::string& sql,
                         const PlannerOptions& options,
                         double* compile_seconds = nullptr) {
  QueryResult result = CheckOk(session->Query(sql, options), sql.c_str());
  if (compile_seconds != nullptr) *compile_seconds += result.compile_seconds;
  return result.total_seconds() - result.compile_seconds;
}

}  // namespace raw::bench

#endif  // RAW_BENCH_BENCH_COMMON_H_
