// perfbench: one run of one workload, printing its metrics as the last line
// of standard output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR --rawd PATH
//   perfbench --print-expected --workload NAME --seed N   (expected answers)
//   perfbench --selftest --workdir DIR --rawd PATH        (checks can fail)
//
// perfbench/run.py builds this binary and supplies --workdir and --rawd.
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"

namespace pb {

namespace {

/// SIGINT/SIGTERM: stop and reap the daemon before exiting.
void OnSignal(int sig) {
  const pid_t pid = g_daemon_pid.load();
  if (pid > 0) StopChild(pid);
  ::_exit(128 + sig);
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json. Every run prints every metric of its mode;
// a per-layer metric a workload does not exercise reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},  {"peak_rss_mb", "MB"}, {"round_s", "s"},
    {"cold_ms", "ms"}, {"warm_ms", "ms"},     {"p50_ms", "ms"},
    {"tail_ms", "ms"}, {"qps", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"engine.register_s", "s"},
    {"serve.start_s", "s"},
    {"engine.open_ms", "ms"},
    {"scan.drain_ms", "ms"},
    {"csv.first_drain_s", "s"},
    {"csv.readapt_s", "s"},
    {"csv.pmap_mb", "MB"},
    {"jit.compiles", "count"},
    {"jit.compile_s", "s"},
    {"jit.hit_ratio", "ratio"},
    {"engine.fused_share", "ratio"},
    {"engine.shred_cache.hit_ratio", "ratio"},
    {"engine.shred_cache.mb", "MB"},
    {"engine.shred_cache.evictions", "count"},
    {"binfmt.cold_drain_ms", "ms"},
    {"binfmt.warm_drain_ms", "ms"},
    {"jsonl.cold_drain_ms", "ms"},
    {"jsonl.warm_drain_ms", "ms"},
    {"zcsv.cold_drain_ms", "ms"},
    {"zcsv.warm_drain_ms", "ms"},
    {"eventsim.cold_drain_ms", "ms"},
    {"eventsim.warm_drain_ms", "ms"},
    {"columnar.group_by_ms", "ms"},
    {"columnar.hash_join_ms", "ms"},
    {"eventsim.ref_pool.hit_ratio", "ratio"},
    {"jsonl.pmap_mb", "MB"},
    {"zcsv.block_index_mb", "MB"},
    {"serve.stats_rtt_ms", "ms"},
    {"serve.hit_ms", "ms"},
    {"serve.miss_ms", "ms"},
    {"autotune.result_cache.hit_ratio", "ratio"},
    {"engine.plans_per_request", "ratio"},
    {"autotune.materializer.actions_completed", "count"},
    {"serve.admission.shed", "count"},
};

using WorkloadFn = raw::Status (*)(const RunConfig&, RunReport*,
                                   WorkloadResult*, bool);

WorkloadFn Find(const std::string& name) {
  if (name == "csv_explore") return CsvExplore;
  if (name == "multiformat_analytics") return MultiformatAnalytics;
  if (name == "rawd_serve") return RawdServe;
  return nullptr;
}

template <size_t N>
std::string MetricsJson(const MetricDef (&defs)[N], const Values& values) {
  std::string json = "{";
  for (size_t i = 0; i < N; ++i) {
    auto it = values.find(defs[i].name);
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", it == values.end() ? 0.0 : it->second);
    json += std::string(i ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + num + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return json + "}";
}

void PrintResult(const RunConfig& cfg, const RunReport& report,
                 const WorkloadResult& result) {
  if (cfg.trace) {
    // For the tracing overhead: a traced run's end-to-end figures.
    std::fprintf(stderr, "perfbench: traced end-to-end: %s\n",
                 MetricsJson(kEndToEnd, result.end_to_end).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              report.checks.all_ok() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              cfg.trace ? MetricsJson(kPerLayer, result.per_layer).c_str()
                        : MetricsJson(kEndToEnd, result.end_to_end).c_str());
  std::fflush(stdout);
}

/// Runs every workload at small scale twice: checked against its own seed
/// (must pass) and against another seed's answers (every answer check must
/// fail); then feeds the consistency checks answers from another seed.
int SelfTest(RunConfig cfg) {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++bad;
  };
  cfg.small = true;
  cfg.seconds = 0;
  const char* names[] = {"csv_explore", "multiformat_analytics", "rawd_serve"};
  for (const char* name : names) {
    for (uint64_t oracle_seed : {cfg.seed, cfg.seed + 1}) {
      RunConfig c = cfg;
      c.workload = name;
      c.oracle_seed = oracle_seed;
      RunReport report;
      WorkloadResult result;
      raw::Status st = Find(name)(c, &report, &result, false);
      const std::vector<std::string> failed = report.checks.FailedCategories();
      std::string cats;
      for (const auto& f : failed) cats += " " + f;
      if (oracle_seed == cfg.seed) {
        expect(st.ok() && report.checks.all_ok() && report.failed == 0,
               std::string(name) + ": passes against its own seed");
      } else {
        const bool answer_failed =
            std::find(failed.begin(), failed.end(), "answer") != failed.end();
        expect(st.ok() && answer_failed,
               std::string(name) + ": fails against another seed (failed:" + cats + ")");
        if (std::string(name) == "csv_explore") {
          expect(std::find(failed.begin(), failed.end(), "replacement") != failed.end(),
                 "csv_explore: replacement check fails against another seed");
        }
      }
    }
  }
  // Consistency checks fed answers from two seeds.
  OTables a, b;
  raw::TableSpec spec = raw::TableSpec::UniformInt32("t", 3, 500, cfg.seed);
  spec.columns[0].max_value = 9;
  a["t"] = SpecColumns(spec, {0, 1, 2});
  spec.seed += 1;
  b["t"] = SpecColumns(spec, {0, 1, 2});
  const Query agg{.table = "t", .aggs = {{Agg::kCount, ""}, {Agg::kMax, "col2"}},
                  .preds = {{"col1", '<', 5e8}}};
  Query grouped = agg;
  grouped.group = "col0";
  expect(SameAcrossFormats({Evaluate(agg, a), Evaluate(agg, a)}),
         "formats: equal answers pass");
  expect(!SameAcrossFormats({Evaluate(agg, a), Evaluate(agg, b), Evaluate(agg, a)}),
         "formats: an answer from another seed fails");
  expect(GroupCountsAddUp(Evaluate(grouped, a), 1, Evaluate(agg, a)),
         "group_sum: same-seed groups add up");
  expect(!GroupCountsAddUp(Evaluate(grouped, b), 1, Evaluate(agg, a)),
         "group_sum: groups from another seed fail");
  expect(ServeCountsMatch(1000, 1000, 1000), "serve_counts: matching counts pass");
  expect(!ServeCountsMatch(1000, 999, 1000), "serve_counts: a lost response fails");
  expect(!ServeCountsMatch(1000, 1000, 1001), "serve_counts: an extra admission fails");
  std::printf("%s\n", bad == 0 ? "selftest passed" : "selftest FAILED");
  return bad == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  cfg.start_s = NowS();
  ::signal(SIGINT, OnSignal);
  ::signal(SIGTERM, OnSignal);
  bool print_expected = false, selftest = false, seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(value());
      seed_given = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(value());
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--workdir") {
      cfg.workdir = value();
    } else if (arg == "--rawd") {
      cfg.rawd_path = value();
    } else if (arg == "--print-expected") {
      print_expected = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  cfg.oracle_seed = cfg.seed;
  if (selftest) return SelfTest(cfg);
  WorkloadFn fn = Find(cfg.workload);
  if (fn == nullptr || (!print_expected && (!seed_given || cfg.workdir.empty()))) {
    std::fprintf(stderr,
                 "usage: perfbench --workload csv_explore|multiformat_analytics|"
                 "rawd_serve --seed N --seconds S --trace 0|1 --workdir DIR "
                 "--rawd PATH\n");
    return 2;
  }
  if (cfg.trace) ::mkdir(".bench_trace", 0755);
  RunReport report;
  WorkloadResult result;
  raw::Status st = fn(cfg, &report, &result, print_expected);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  if (!print_expected) PrintResult(cfg, report, result);
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) { return pb::Main(argc, argv); }
