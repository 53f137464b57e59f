// rawd: the RAW engine behind a TCP front end.
//
//   rawd [--port N] [--csv NAME=PATH]... [--demo[=ROWS]]
//        [--interactive-concurrent N] [--batch-concurrent N]
//        [--max-queued N] [--workers N]
//        [--autotune=0|1] [--result-cache-mb N]
//        [--malformed-rows=fail|skip|null-fill]
//
// Registered files are queried in place per the RAW in-situ model; --demo
// generates and registers a small synthetic CSV table named `demo`
// (id INT32, grp STRING, value FLOAT64) so the daemon is testable without
// any data files. SIGTERM/SIGINT trigger a graceful drain: stop accepting,
// finish in-flight queries, flush responses, exit 0.

#include <signal.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/scan_health.h"
#include "common/temp_dir.h"
#include "csv/csv_writer.h"
#include "engine/raw_engine.h"
#include "serve/server.h"

namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--port N] [--csv NAME=PATH]... [--demo[=ROWS]]\n"
          "          [--interactive-concurrent N] [--batch-concurrent N]\n"
          "          [--max-queued N] [--workers N]\n"
          "          [--autotune=0|1] [--result-cache-mb N]\n"
          "          [--malformed-rows=fail|skip|null-fill]\n",
          argv0);
  return 2;
}

bool ParseIntFlag(const char* arg, const char* name, int* out,
                  int64_t min_value = 1) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  auto v = raw::ParseInt64Strict(arg + len + 1, min_value, 1 << 20);
  if (!v.has_value()) {
    fprintf(stderr, "rawd: bad value for %s\n", name);
    exit(2);
  }
  *out = static_cast<int>(*v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // One malloc arena for the whole daemon. glibc gives each busy thread its
  // own arena, and each arena keeps the high-water mark of the transient
  // plan and scan buffers its thread allocated, so the daemon's RSS grew
  // with the number of requests served: after 25 s of perfbench rawd_serve,
  // 43-48 MB against 31 MB with one arena, at the same request rate.
  // MALLOC_ARENA_MAX in the environment still takes precedence.
  if (std::getenv("MALLOC_ARENA_MAX") == nullptr) mallopt(M_ARENA_MAX, 1);
#endif
  raw::serve::ServerOptions options;
  options.port = 4300;
  int64_t demo_rows = 0;
  // Serving daemons default to the full self-tuning tier: the background
  // materializer warms hot tables during idle gaps and the result cache
  // short-circuits repeated queries. RAW_AUTOTUNE / RAW_RESULT_CACHE_BYTES
  // still win over these flags (applied inside the engine constructor).
  int autotune = 1;
  int result_cache_mb = 64;
  raw::MalformedRowPolicy malformed_rows = raw::MalformedRowPolicy::kFail;
  std::vector<std::pair<std::string, std::string>> csvs;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // 0 asks the OS for an ephemeral port; the bound port is printed below.
    if (ParseIntFlag(arg, "--port", &options.port, /*min_value=*/0)) continue;
    if (std::strncmp(arg, "--autotune=", 11) == 0) {
      auto v = raw::ParseInt64Strict(arg + 11, 0, 1);
      if (!v.has_value()) return Usage(argv[0]);
      autotune = static_cast<int>(*v);
      continue;
    }
    if (std::strncmp(arg, "--result-cache-mb=", 18) == 0) {
      auto v = raw::ParseInt64Strict(arg + 18, 0, 1 << 20);
      if (!v.has_value()) return Usage(argv[0]);
      result_cache_mb = static_cast<int>(*v);
      continue;
    }
    if (std::strncmp(arg, "--malformed-rows=", 17) == 0) {
      auto p = raw::ParseMalformedRowPolicy(arg + 17);
      if (!p.has_value()) return Usage(argv[0]);
      malformed_rows = *p;
      continue;
    }
    if (ParseIntFlag(arg, "--interactive-concurrent",
                     &options.admission.interactive.max_concurrent)) {
      continue;
    }
    if (ParseIntFlag(arg, "--batch-concurrent",
                     &options.admission.batch.max_concurrent)) {
      continue;
    }
    if (ParseIntFlag(arg, "--max-queued",
                     &options.admission.max_total_queued)) {
      continue;
    }
    if (ParseIntFlag(arg, "--workers", &options.admission.num_workers)) {
      continue;
    }
    if (std::strcmp(arg, "--demo") == 0) {
      demo_rows = 10000;
      continue;
    }
    if (std::strncmp(arg, "--demo=", 7) == 0) {
      auto v = raw::ParseInt64Strict(arg + 7, 1, int64_t{1} << 40);
      if (!v.has_value()) return Usage(argv[0]);
      demo_rows = *v;
      continue;
    }
    if (std::strncmp(arg, "--csv", 5) == 0 && arg[5] == '=') {
      const char* spec = arg + 6;
      const char* eq = std::strchr(spec, '=');
      if (eq == nullptr) return Usage(argv[0]);
      csvs.emplace_back(std::string(spec, eq), std::string(eq + 1));
      continue;
    }
    return Usage(argv[0]);
  }

  raw::RawEngineOptions engine_options;
  engine_options.autotune.enabled = autotune != 0;
  engine_options.result_cache_bytes =
      static_cast<int64_t>(result_cache_mb) << 20;
  engine_options.planner.malformed_row_policy = malformed_rows;
  raw::RawEngine engine(engine_options);

  std::optional<raw::TempDir> demo_dir;
  if (demo_rows > 0) {
    auto dir = raw::TempDir::Create("rawd_demo_");
    if (!dir.ok()) {
      fprintf(stderr, "rawd: %s\n", dir.status().ToString().c_str());
      return 1;
    }
    demo_dir.emplace(std::move(*dir));
    const std::string path = demo_dir->FilePath("demo.csv");
    raw::CsvWriter writer(path);
    if (!writer.Open().ok()) {
      fprintf(stderr, "rawd: cannot write demo data\n");
      return 1;
    }
    static const char* kGroups[] = {"alpha", "beta", "gamma", "delta"};
    for (int64_t i = 0; i < demo_rows; ++i) {
      writer.AppendInt32(static_cast<int32_t>(i));
      writer.AppendString(kGroups[i % 4]);
      writer.AppendFloat64(static_cast<double>(i % 997) * 0.5);
      writer.EndRow();
    }
    if (!writer.Close().ok()) {
      fprintf(stderr, "rawd: cannot write demo data\n");
      return 1;
    }
    raw::Schema schema{{"id", raw::DataType::kInt32},
                       {"grp", raw::DataType::kString},
                       {"value", raw::DataType::kFloat64}};
    if (auto st = engine.RegisterCsv("demo", path, schema); !st.ok()) {
      fprintf(stderr, "rawd: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  for (const auto& [name, path] : csvs) {
    if (auto st = engine.RegisterCsvInferred(name, path); !st.ok()) {
      fprintf(stderr, "rawd: register %s: %s\n", name.c_str(),
              st.ToString().c_str());
      return 1;
    }
  }

  // Block SIGTERM/SIGINT before starting any threads so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  raw::serve::RawServer server(&engine, options);
  if (auto st = server.Start(); !st.ok()) {
    fprintf(stderr, "rawd: %s\n", st.ToString().c_str());
    return 1;
  }
  printf("rawd: listening on 127.0.0.1:%d\n", server.port());
  fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  printf("rawd: signal %d, draining\n", sig);
  fflush(stdout);

  server.Shutdown();
  const raw::EngineStats stats = engine.Stats();
  printf("rawd: drained; executed=%lld shed=%lld deadline_expired=%lld\n",
         static_cast<long long>(stats.admission.executed),
         static_cast<long long>(stats.admission.shed),
         static_cast<long long>(stats.admission.deadline_expired));
  printf("rawd: autotune passes=%lld completed=%lld preempted=%lld "
         "result_cache hits=%lld misses=%lld\n",
         static_cast<long long>(stats.materializer.passes),
         static_cast<long long>(stats.materializer.actions_completed),
         static_cast<long long>(stats.materializer.actions_preempted),
         static_cast<long long>(stats.result_cache.hits),
         static_cast<long long>(stats.result_cache.misses));
  return 0;
}
