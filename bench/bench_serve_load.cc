// rawd serving-tier load driver: latency under offered load, and what the
// admission controller's shedding buys when the offered rate exceeds what
// the engine can serve.
//
//   Phase 1 (windowed closed loop): N clients keep a window of pipelined
//     queries in flight — the saturation throughput of this machine/table/
//     query combination. The window per connection equals that connection's
//     share of the admission queue, so the phase measures executed queries,
//     not a shed-and-resend loop; the few sheds left are reported.
//   Phase 2 (open loop): senders put queries on the wire on schedule at
//     0.5x, 1x and 2x the measured saturation rate, regardless of how fast
//     answers come back (what external load looks like); a reader thread
//     per connection collects responses. We record p50/p99 latency of
//     answered queries and the shed fraction. At 2x the server must shed
//     (typed OVERLOADED fast-fails from the bounded admission queue) rather
//     than queueing without bound: p99 of the *answered* queries stays
//     bounded, and the sheds show up in EngineStats.
//   Phase 3 (fault loop): closed loop against a CSV table whose backing
//     file a toucher thread keeps churning (mtime bumps), so queries keep
//     re-opening and re-scanning the raw file instead of riding the mmap /
//     shred / result caches — with the fault injector failing a sample of
//     those re-opens and clients dropping + transparently reconnecting
//     their sockets. Records the answered-query error fraction and client
//     retry/reconnect counts so nightly diffs catch robustness-path
//     regressions.
//
// Knobs: RAW_BENCH_ROWS (table size), RAW_BENCH_SERVE_SECONDS (per-phase
// duration), RAW_BENCH_SERVE_CLIENTS (concurrent clients). Every datapoint
// also lands in $RAW_BENCH_JSON for the nightly diff.

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "bench/bench_common.h"
#include "common/env.h"
#include "common/fault_injector.h"
#include "common/temp_dir.h"
#include "csv/csv_writer.h"
#include "serve/client.h"
#include "serve/server.h"

namespace raw::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct LoadResult {
  std::vector<double> latencies;  // answered queries only, seconds
  int64_t answered = 0;
  int64_t shed = 0;
  int64_t errors = 0;

  double Percentile(double p) const {
    if (latencies.empty()) return 0;
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[idx];
  }
  int64_t offered() const { return answered + shed + errors; }
  double shed_fraction() const {
    return offered() > 0 ? static_cast<double>(shed) / offered() : 0;
  }
};

const char* kQuery = "SELECT COUNT(*), MAX(value) FROM readings"
                     " WHERE value > 10.0";

struct SaturationResult {
  double qps = 0;    // answered queries per second
  int64_t shed = 0;  // requests the admission controller shed
};

/// Windowed closed loop: each client keeps `window` queries in flight and
/// sends a new one per answer. Returns the aggregate rate of *answered*
/// queries — the service capacity, not limited by per-request round trips
/// and not inflated by shed fast-fails — and the sheds seen on the way.
SaturationResult MeasureSaturation(int port, int clients, int window,
                                   double seconds) {
  std::atomic<int64_t> done{0};
  std::atomic<int64_t> shed{0};
  std::vector<std::thread> threads;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, port] {
      auto client = serve::RawClient::Connect("127.0.0.1", port);
      if (!client.ok() || !(*client)->Hello().ok()) return;
      uint64_t next_id = 1;
      int64_t in_flight = 0;
      for (; in_flight < window; ++in_flight) {
        if (!(*client)->SendQuery(next_id++, kQuery).ok()) return;
      }
      while (in_flight > 0) {
        auto resp = (*client)->ReadResponse();
        if (!resp.ok()) return;
        --in_flight;
        // Sheds are responses but not service; only answered queries count
        // toward the saturation rate.
        if (resp->overloaded) {
          shed.fetch_add(1);
        } else if (resp->status.ok()) {
          done.fetch_add(1);
        }
        if (Clock::now() < end) {
          if (!(*client)->SendQuery(next_id++, kQuery).ok()) return;
          ++in_flight;
        }
      }
      (*client)->Goodbye();
    });
  }
  for (std::thread& t : threads) t.join();
  return {static_cast<double>(done.load()) / seconds, shed.load()};
}

/// Open loop: each connection's sender puts queries on the wire on schedule
/// at `qps / clients` whether or not earlier answers came back; a reader
/// thread matches responses (possibly out of order — sheds overtake running
/// queries) back to their send times.
LoadResult RunOpenLoop(int port, int clients, double qps, double seconds) {
  std::vector<LoadResult> per_thread(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c, port] {
      LoadResult& r = per_thread[static_cast<size_t>(c)];
      auto client_or = serve::RawClient::Connect("127.0.0.1", port);
      if (!client_or.ok() || !(*client_or)->Hello().ok()) return;
      serve::RawClient* client = client_or->get();
      const double interval = static_cast<double>(clients) / qps;
      const int64_t total = static_cast<int64_t>(seconds * qps / clients);
      // Send times indexed by request_id - 1; the sender writes slot i
      // strictly before the wire carries id i+1 back, so the reader's
      // access is ordered by the response itself.
      std::vector<Clock::time_point> sent(static_cast<size_t>(total));
      std::atomic<int64_t> sends_visible{0};

      std::thread reader([&] {
        for (int64_t got = 0; got < total; ++got) {
          auto resp = client->ReadResponse();
          if (!resp.ok()) break;  // sender aborted and closed the socket
          const int64_t slot =
              static_cast<int64_t>(resp->request_id) - 1;
          // The slot's send time is published before the query hits the
          // wire; acquire it before reading.
          while (sends_visible.load(std::memory_order_acquire) <= slot) {
            std::this_thread::yield();
          }
          const double latency =
              std::chrono::duration<double>(Clock::now() -
                                            sent[static_cast<size_t>(slot)])
                  .count();
          if (resp->overloaded) {
            ++r.shed;
          } else if (resp->status.ok()) {
            ++r.answered;
            r.latencies.push_back(latency);
          } else {
            ++r.errors;
          }
        }
      });

      const auto start = Clock::now();
      bool aborted = false;
      for (int64_t i = 0; i < total; ++i) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i * interval));
        std::this_thread::sleep_until(due);
        sent[static_cast<size_t>(i)] = Clock::now();
        sends_visible.store(i + 1, std::memory_order_release);
        if (!client->SendQuery(static_cast<uint64_t>(i) + 1, kQuery,
                               /*deadline_ms=*/10000)
                 .ok()) {
          aborted = true;
          break;
        }
      }
      if (aborted) client->Close();  // unblocks the reader's recv
      reader.join();
      if (!aborted) client->Goodbye();
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult merged;
  for (LoadResult& r : per_thread) {
    merged.answered += r.answered;
    merged.shed += r.shed;
    merged.errors += r.errors;
    merged.latencies.insert(merged.latencies.end(), r.latencies.begin(),
                            r.latencies.end());
  }
  return merged;
}

/// Phase 3 (fault loop): closed-loop clients against a table whose backing
/// file churns underneath them while the fault injector fails a sample of
/// the resulting re-opens. Injected faults come back as typed ERROR frames
/// (counted into the error fraction, never a dropped connection); every
/// kDropEvery-th query the client drops its own socket first, so the
/// transparent retry/reconnect/backoff path runs under load and its cost
/// lands in this phase's throughput.
struct FaultLoadResult {
  int64_t answered = 0;
  int64_t errors = 0;     // typed per-query error responses
  int64_t transport = 0;  // Query() failures after retries were exhausted
  int64_t retries = 0;
  int64_t reconnects = 0;

  int64_t total() const { return answered + errors + transport; }
  double error_fraction() const {
    return total() > 0 ? static_cast<double>(errors + transport) / total()
                       : 0;
  }
};

FaultLoadResult RunFaultLoop(int port, int clients, double seconds,
                             const char* query) {
  constexpr int64_t kDropEvery = 64;
  std::vector<FaultLoadResult> per_thread(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c, port] {
      FaultLoadResult& r = per_thread[static_cast<size_t>(c)];
      serve::RawClientOptions copts;
      copts.max_retries = 2;
      copts.backoff_initial_ms = 1;
      copts.backoff_max_ms = 16;
      copts.jitter_seed = static_cast<uint64_t>(c) + 1;
      auto client = serve::RawClient::Connect("127.0.0.1", port, copts);
      if (!client.ok() || !(*client)->Hello().ok()) return;
      int64_t sent = 0;
      while (Clock::now() < end) {
        if (++sent % kDropEvery == 0) (*client)->Close();
        auto resp = (*client)->Query(query);
        if (!resp.ok()) {
          ++r.transport;
          if (!(*client)->connected()) break;
          continue;
        }
        if (resp->status.ok()) {
          ++r.answered;
        } else {
          ++r.errors;
        }
      }
      r.retries = (*client)->retries();
      r.reconnects = (*client)->reconnects();
      if ((*client)->connected()) (*client)->Goodbye();
    });
  }
  for (std::thread& t : threads) t.join();
  FaultLoadResult merged;
  for (const FaultLoadResult& r : per_thread) {
    merged.answered += r.answered;
    merged.errors += r.errors;
    merged.transport += r.transport;
    merged.retries += r.retries;
    merged.reconnects += r.reconnects;
  }
  return merged;
}

void Run() {
  const int64_t rows =
      GetEnvInt64("RAW_BENCH_ROWS", 200000, 1, int64_t{1} << 40);
  const int64_t phase_seconds =
      GetEnvInt64("RAW_BENCH_SERVE_SECONDS", 2, 1, 3600);
  const int clients = static_cast<int>(
      GetEnvInt64("RAW_BENCH_SERVE_CLIENTS", 4, 1, 256));

  PrintTitle("rawd load: latency vs offered QPS, shedding at overload");
  printf("rows=%lld  clients=%d  phase=%llds  query: %s\n",
         static_cast<long long>(rows), clients,
         static_cast<long long>(phase_seconds), kQuery);

  auto dir = CheckOk(TempDir::Create("bench_serve_"), "temp dir");
  const std::string path = dir.FilePath("readings.csv");
  {
    CsvWriter writer(path);
    CheckOk(writer.Open(), "open csv");
    for (int64_t i = 0; i < rows; ++i) {
      writer.AppendInt32(static_cast<int32_t>(i));
      writer.AppendFloat64(static_cast<double>(i % 997) * 0.5);
      writer.EndRow();
    }
    CheckOk(writer.Close(), "close csv");
  }
  RawEngine engine;
  Schema schema{{"id", DataType::kInt32}, {"value", DataType::kFloat64}};
  CheckOk(engine.RegisterCsv("readings", path, schema), "register");

  // A deliberately bounded serving tier: capacity scales with `clients`,
  // the queue is shallow (2 per client) so overload turns into typed sheds
  // within milliseconds instead of an ever-growing backlog.
  serve::ServerOptions options;
  options.admission.interactive.max_concurrent = clients;
  options.admission.num_workers = clients;
  options.admission.interactive.max_queued = 2 * clients;
  options.admission.max_total_queued = 2 * clients;
  serve::RawServer server(&engine, options);
  CheckOk(server.Start(), "server start");

  // Warm the adaptive caches so phase timings measure serving, not the
  // first-query positional-map build.
  {
    auto client = CheckOk(
        serve::RawClient::Connect("127.0.0.1", server.port()), "connect");
    CheckOk(client->Hello(), "hello");
    auto resp = CheckOk(client->Query(kQuery), "warmup query");
    CheckOk(resp.status, "warmup result");
    CheckOk(client->Goodbye(), "goodbye");
  }

  // In flight per connection: the connection's share of the admission
  // queue. More would only be shed and resent.
  const int window = options.admission.max_total_queued / clients;
  const SaturationResult saturation = MeasureSaturation(
      server.port(), clients, window, static_cast<double>(phase_seconds));
  const double sat = saturation.qps;
  printf("\nsaturation: %.0f qps (windowed closed loop, %d clients x %d in "
         "flight, %lld shed)\n",
         sat, clients, window, static_cast<long long>(saturation.shed));
  RecordJson("serve/saturation-qps", sat);
  RecordJson("serve/saturation-sheds", static_cast<double>(saturation.shed));
  RecordJson("serve/saturation-query-seconds", sat > 0 ? 1.0 / sat : 0);
  // Flush per phase: stdout to a pipe is block-buffered, and a crash in a
  // later phase would otherwise lose everything the earlier ones printed.
  fflush(stdout);

  printf("\n%-10s %10s %10s %10s %10s %10s\n", "load", "offered", "answered",
         "shed%", "p50", "p99");
  for (double factor : {0.5, 1.0, 2.0}) {
    const double qps = std::max(1.0, sat * factor);
    LoadResult r = RunOpenLoop(server.port(), clients, qps,
                               static_cast<double>(phase_seconds));
    char label[16];
    snprintf(label, sizeof(label), "%.1fx", factor);
    printf("%-10s %10lld %10lld %9.1f%% %9.4fs %9.4fs\n", label,
           static_cast<long long>(r.offered()),
           static_cast<long long>(r.answered), 100 * r.shed_fraction(),
           r.Percentile(0.5), r.Percentile(0.99));
    RecordJson(std::string("serve/p50@") + label, r.Percentile(0.5));
    RecordJson(std::string("serve/p99@") + label, r.Percentile(0.99));
    RecordJson(std::string("serve/shed-fraction@") + label,
               r.shed_fraction());
  }
  fflush(stdout);

  // Phase 3: the robustness path. Repeat scans of an unchanged file do no
  // raw I/O by design (mmap once, then positional maps and column shreds
  // absorb the rest), so sustained fault pressure needs file churn: a
  // toucher thread bumps the table file's mtime every few milliseconds,
  // each bump invalidates the mmap and every structure derived from it, and
  // the next query re-opens and re-scans the raw file — with the injector
  // failing a sample of those re-opens with EIO. The nightly diff on these
  // numbers catches both error-path perf regressions and retry storms.
  {
    const std::string hostile_path = dir.FilePath("hostile.csv");
    const int64_t hostile_rows = std::min<int64_t>(rows, 20000);
    {
      CsvWriter writer(hostile_path);
      CheckOk(writer.Open(), "open hostile csv");
      for (int64_t i = 0; i < hostile_rows; ++i) {
        writer.AppendInt32(static_cast<int32_t>(i));
        writer.AppendFloat64(static_cast<double>(i % 997) * 0.5);
        writer.EndRow();
      }
      CheckOk(writer.Close(), "close hostile csv");
    }
    CheckOk(engine.RegisterCsv("hostile", hostile_path, schema),
            "register hostile");
    const char* hostile_query =
        "SELECT COUNT(*), MAX(value) FROM hostile WHERE value > 10.0";
    {
      auto client = CheckOk(
          serve::RawClient::Connect("127.0.0.1", server.port()), "connect");
      CheckOk(client->Hello(), "hello");
      auto resp = CheckOk(client->Query(hostile_query), "hostile warmup");
      CheckOk(resp.status, "hostile warmup result");
      CheckOk(client->Goodbye(), "goodbye");
    }

    FaultSpec fault;
    std::string fault_err;
    if (!FaultInjector::ParseSpec("eio:path=hostile.csv,sample=0.1,seed=11",
                                  &fault, &fault_err)) {
      fprintf(stderr, "fault spec: %s\n", fault_err.c_str());
      exit(1);
    }
    FaultInjector::Global().Arm(fault);
    std::atomic<bool> stop_toucher{false};
    std::thread toucher([&] {
      while (!stop_toucher.load(std::memory_order_relaxed)) {
        ::utimensat(AT_FDCWD, hostile_path.c_str(), nullptr, 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    FaultLoadResult fr =
        RunFaultLoop(server.port(), clients, static_cast<double>(phase_seconds),
                     hostile_query);
    stop_toucher.store(true, std::memory_order_relaxed);
    toucher.join();
    FaultInjector::Global().Disarm();

    printf("\nfault loop (file churn every 5 ms, 10%% of re-opens fail EIO, "
           "retries=2, drop every 64th query):\n"
           "  answered=%lld typed-errors=%lld transport-failures=%lld "
           "error-fraction=%.3f%%\n"
           "  client retries=%lld reconnects=%lld  answered qps=%.0f\n",
           static_cast<long long>(fr.answered),
           static_cast<long long>(fr.errors),
           static_cast<long long>(fr.transport), 100 * fr.error_fraction(),
           static_cast<long long>(fr.retries),
           static_cast<long long>(fr.reconnects),
           static_cast<double>(fr.answered) /
               static_cast<double>(phase_seconds));
    RecordJson("serve/fault-error-fraction", fr.error_fraction());
    RecordJson("serve/fault-answered-qps",
               static_cast<double>(fr.answered) /
                   static_cast<double>(phase_seconds));
    RecordJson("serve/fault-client-retries", static_cast<double>(fr.retries));
    RecordJson("serve/fault-client-reconnects",
               static_cast<double>(fr.reconnects));
    fflush(stdout);
  }

  server.Shutdown();
  const EngineStats stats = engine.Stats();
  printf("\nadmission counters: admitted=%lld executed=%lld shed=%lld "
         "deadline_expired=%lld\n",
         static_cast<long long>(stats.admission.admitted),
         static_cast<long long>(stats.admission.executed),
         static_cast<long long>(stats.admission.shed),
         static_cast<long long>(stats.admission.deadline_expired));
  RecordJson("serve/total-shed", static_cast<double>(stats.admission.shed));
  printf("robustness counters: io_faults=%lld faults_injected=%lld\n",
         static_cast<long long>(stats.io_faults),
         static_cast<long long>(stats.faults_injected));

  printf("\nExpect: at 0.5x nothing sheds and p99 stays near the closed-loop\n"
         "latency; at 2x the bounded queue sheds the excess (typed\n"
         "OVERLOADED) instead of letting answered-query p99 blow up.\n");
}

}  // namespace
}  // namespace raw::bench

int main() {
  raw::bench::Run();
  return 0;
}
