// rawd_serve: the rawd daemon as shipped (default flags: 2 workers, autotune
// on, 64 MB result cache) serving one CSV to a dashboard. The benchmark is
// the load generator: 1 connection in a closed loop, one request in flight,
// so the default admission limits never shed. Each round sends 1000
// requests: 85% repeated dashboard queries (result-cache hits after their
// first send) and, with fresh literals, 9% ad-hoc filtered averages, 3%
// GROUP BYs and 3% ad-hoc filtered COUNT/SUM/MAX aggregates. The last shape
// is the one the planner fuses, and each fresh literal compiles a kernel, so
// its share sets the tail. With a second connection, hits often waited for a
// CPU behind the other connection's scan, and p50 moved with that; with
// fewer repeats, more hits follow a scan, which makes a hit slower.
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"
#include "serve/client.h"
#include "workload/data_gen.h"

namespace pb {

std::atomic<pid_t> g_daemon_pid{0};

void StopChild(pid_t pid) {
  ::kill(pid, SIGTERM);
  const timespec tick{0, 10 * 1000 * 1000};
  int status = 0;
  for (int waited_ms = 0; waited_ms < 10000; waited_ms += 10) {
    if (::waitpid(pid, &status, WNOHANG) != 0) return;  // reaped, or gone
    ::nanosleep(&tick, nullptr);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
}

namespace {

constexpr int kRoundRequests = 1000;
// A request that gets no answer in this time fails and ends the run, so a
// hung query cannot hold the run (and rawd) past its time limit.
constexpr int kIoTimeoutMs = 30000;

/// The daemon as a child process: started on a free port, always stopped
/// with SIGTERM (SIGKILL after 10 s) and reaped.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  raw::Status Start(const std::string& rawd, const std::string& csv,
                    const std::string& workdir) {
    // rawd rejects --port=0, so pick a free port here; another process may
    // take it first, in which case rawd exits and we retry on a new one.
    for (int attempt = 0; attempt < 5; ++attempt) {
      const int port = FreePort();
      if (port <= 0) return raw::Status::IOError("no free port");
      const std::string log = workdir + "/rawd.log";
      const pid_t pid = ::fork();
      if (pid < 0) return raw::Status::IOError("fork failed");
      if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
          ::dup2(fd, 1);
          ::dup2(fd, 2);
        }
        const std::string port_arg = "--port=" + std::to_string(port);
        const std::string csv_arg = "--csv=t=" + csv;
        ::execl(rawd.c_str(), rawd.c_str(), port_arg.c_str(), csv_arg.c_str(),
                static_cast<char*>(nullptr));
        ::_exit(127);
      }
      pid_ = pid;
      g_daemon_pid = pid;
      const std::string want = "listening on 127.0.0.1:" + std::to_string(port);
      for (int waited_ms = 0; waited_ms < 60000; waited_ms += 10) {
        std::ifstream in(log);
        std::stringstream text;
        text << in.rdbuf();
        if (text.str().find(want) != std::string::npos) {
          port_ = port;
          return raw::Status::OK();
        }
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = 0;
          g_daemon_pid = 0;
          std::fprintf(stderr, "perfbench: rawd exited at start: %s\n", text.str().c_str());
          break;
        }
        ::usleep(10000);
      }
      Stop();
    }
    return raw::Status::IOError("rawd did not start");
  }

  /// SIGTERM (graceful drain), then reap.
  void Stop() {
    if (pid_ <= 0) return;
    StopChild(pid_);
    pid_ = 0;
    g_daemon_pid = 0;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  static int FreePort() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    int port = -1;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
    ::close(fd);
    return port;
  }

  pid_t pid_ = 0;
  int port_ = 0;
};

/// A number in rawd's STATS JSON: the first `key` after the member `object`
/// (from the top when empty; "tables" reads the first table). The format
/// is EngineStatsJson's fixed layout.
double StatsNumber(const std::string& json, const std::string& object,
                   const std::string& key) {
  size_t from = 0;
  if (!object.empty()) {
    from = json.find("\"" + object + "\":");
    if (from == std::string::npos) return 0;
  }
  const size_t at = json.find("\"" + key + "\":", from);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

struct Request {
  std::string sql;
  Answer expected;
  bool grouped = false;
};

/// Expected answers of the parametrised shapes by binary search over
/// prefix aggregates, so a fresh literal costs O(log n) to check.
class PrefixOracle {
 public:
  /// Ad-hoc: COUNT(*), SUM(col3), MAX(col4) or COUNT(*), AVG(col3)
  /// WHERE col<p> < L, p in {1, 2}.
  /// Group-by: col0, COUNT(*), MAX(col3) WHERE col2 < L GROUP BY col0.
  explicit PrefixOracle(const OTable& t) {
    const auto& g = t.cols.at("col0").v;
    const auto& c3 = t.cols.at("col3").v;
    const auto& c4 = t.cols.at("col4").v;
    for (int p = 0; p < 2; ++p) {
      const auto& key = t.cols.at(p == 0 ? "col1" : "col2").v;
      std::vector<size_t> order(key.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) { return key[a] < key[b]; });
      Sorted& s = adhoc_[p];
      s.keys.push_back(-1);
      s.sum.push_back(0);
      s.max.push_back(-1);
      for (size_t i : order) {
        s.keys.push_back(key[i]);
        s.sum.push_back(s.sum.back() + c3[i]);
        s.max.push_back(std::max(s.max.back(), c4[i]));
      }
    }
    const auto& c2 = t.cols.at("col2").v;
    for (size_t i = 0; i < g.size(); ++i) groups_[g[i]].push_back({c2[i], c3[i]});
    for (auto& [key, rows] : groups_) {
      std::sort(rows.begin(), rows.end());
      for (size_t i = 1; i < rows.size(); ++i) rows[i].second = std::max(rows[i].second, rows[i - 1].second);
    }
  }

  Answer AdHoc(int p, double literal, bool avg) const {
    const Sorted& s = adhoc_[p];
    // Entries 1..n hold the sorted keys; count = keys strictly below L.
    const size_t n = static_cast<size_t>(
        std::lower_bound(s.keys.begin() + 1, s.keys.end(), literal) - (s.keys.begin() + 1));
    const double count = static_cast<double>(n);
    if (avg) return Answer{{false, true}, {{count, s.sum[n] / count}}};
    return Answer{{false, false, false}, {{count, s.sum[n], s.max[n]}}};
  }

  Answer GroupBy(double literal) const {
    Answer a{{false, false, false}, {}};
    for (const auto& [key, rows] : groups_) {
      const size_t n = static_cast<size_t>(
          std::lower_bound(rows.begin(), rows.end(), std::pair{literal, -1e300}) - rows.begin());
      if (n > 0) a.rows.push_back({key, static_cast<double>(n), rows[n - 1].second});
    }
    return a;
  }

 private:
  struct Sorted {
    std::vector<double> keys, sum, max;
  };
  Sorted adhoc_[2];
  std::map<double, std::vector<std::pair<double, double>>> groups_;  // (col2, running max col3)
};

raw::TableSpec ServeSpec(uint64_t seed, int64_t rows) {
  raw::TableSpec spec = raw::TableSpec::UniformInt32("t", 6, rows, seed);
  spec.columns[0].max_value = 9;
  spec.columns[5].max_value = 999;
  return spec;
}

std::vector<Query> Dashboard(uint64_t seed) {
  raw::Rng rng(seed * 0xD1B54A32D192ED03ull + 5);
  auto lit = [&] { return static_cast<double>(rng.NextInt32(400000000, 600000000)); };
  return {
      {.table = "t", .aggs = {{Agg::kCount, ""}}, .preds = {{"col1", '<', lit()}}},
      {.table = "t", .group = "col0", .aggs = {{Agg::kCount, ""}}},
      {.table = "t", .aggs = {{Agg::kMax, "col2"}, {Agg::kMin, "col3"}}, .preds = {{"col4", '<', lit()}}},
      {.table = "t", .group = "col0", .aggs = {{Agg::kSum, "col5"}}, .preds = {{"col1", '>', lit()}}},
      {.table = "t", .aggs = {{Agg::kAvg, "col5"}}, .preds = {{"col2", '<', lit()}}},
      {.table = "t", .aggs = {{Agg::kCount, ""}, {Agg::kMax, "col5"}}, .preds = {{"col3", '>', lit()}}},
      {.table = "t", .aggs = {{Agg::kSum, "col1"}}, .preds = {{"col0", '<', 5}}},
      {.table = "t", .aggs = {{Agg::kMin, "col4"}, {Agg::kMax, "col4"}}, .preds = {{"col5", '>', 500}}},
  };
}

/// The kinds of request in a round, with their counts out of kRoundRequests.
/// The counts are exact, so every round does the same work whatever the seed.
enum class Kind { kDashboard, kAvg, kGroupBy, kFused };
constexpr std::pair<Kind, int> kRoundMix[] = {
    {Kind::kDashboard, 850}, {Kind::kAvg, 90}, {Kind::kGroupBy, 30}, {Kind::kFused, 30}};
static_assert([] {
  int n = 0;
  for (const auto& [kind, count] : kRoundMix) n += count;
  return n;
}() == kRoundRequests);

/// One round's requests in an order and with literals drawn from (seed, round).
std::vector<Request> Round(uint64_t seed, int round, const std::vector<Request>& dashboard,
                           const PrefixOracle& oracle) {
  raw::Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(round) * 7919 + 1);
  std::vector<Kind> kinds;
  for (const auto& [kind, count] : kRoundMix) kinds.insert(kinds.end(), count, kind);
  for (size_t i = kinds.size() - 1; i > 0; --i) {
    std::swap(kinds[i], kinds[rng.NextBelow(i + 1)]);
  }
  std::vector<Request> out;
  for (const Kind kind : kinds) {
    const double literal = rng.NextInt32(100000000, 900000000);
    if (kind == Kind::kDashboard) {
      out.push_back(dashboard[rng.NextBelow(dashboard.size())]);
    } else if (kind == Kind::kGroupBy) {
      const Query q{.table = "t", .group = "col0",
                    .aggs = {{Agg::kCount, ""}, {Agg::kMax, "col3"}},
                    .preds = {{"col2", '<', literal}}};
      out.push_back({q.Sql(), oracle.GroupBy(literal), true});
    } else {
      const bool avg = kind == Kind::kAvg;
      const int p = static_cast<int>(rng.NextBelow(2));
      Query q{.table = "t", .preds = {{p == 0 ? "col1" : "col2", '<', literal}}};
      q.aggs = avg ? std::vector<AggItem>{{Agg::kCount, ""}, {Agg::kAvg, "col3"}}
                   : std::vector<AggItem>{{Agg::kCount, ""}, {Agg::kSum, "col3"}, {Agg::kMax, "col4"}};
      out.push_back({q.Sql(), oracle.AdHoc(p, literal, avg), false});
    }
  }
  return out;
}

struct Sample {
  double latency_s;
  bool hit;  // the same text was sent before
};

}  // namespace

raw::Status RawdServe(const RunConfig& cfg, RunReport* report,
                      WorkloadResult* out, bool print_expected) {
  const int64_t rows = cfg.small ? 2000 : 100000;
  const std::vector<Query> dashboard_queries = Dashboard(cfg.seed);
  std::vector<Request> dashboard;
  std::unique_ptr<PrefixOracle> oracle;
  auto compute_expected = [&] {
    OTables t;
    t["t"] = SpecColumns(ServeSpec(cfg.oracle_seed, rows), {0, 1, 2, 3, 4, 5});
    for (const Query& q : dashboard_queries) {
      dashboard.push_back({q.Sql(), Evaluate(q, t), !q.group.empty()});
    }
    oracle = std::make_unique<PrefixOracle>(t.at("t"));
  };
  if (print_expected) {
    compute_expected();
    for (const Request& r : Round(cfg.seed, 0, dashboard, *oracle)) {
      std::printf("%s\n  => %s\n", r.sql.c_str(), r.expected.ToString().c_str());
    }
    return raw::Status::OK();
  }

  Tracer tracer(cfg.trace);
  const std::string csv = cfg.workdir + "/serve.csv";
  {
    ScopedSpan span(&tracer, "workload.generate");
    RAW_RETURN_NOT_OK(raw::WriteCsvFile(ServeSpec(cfg.seed, rows), csv));
    RAW_RETURN_NOT_OK(SyncDir(cfg.workdir));
  }
  Daemon daemon;
  {
    ScopedSpan span(&tracer, "serve.start");
    RAW_RETURN_NOT_OK(daemon.Start(cfg.rawd_path, csv, cfg.workdir));
  }
  raw::serve::RawClientOptions client_options;
  client_options.io_timeout_ms = kIoTimeoutMs;
  RAW_ASSIGN_OR_RETURN(std::unique_ptr<raw::serve::RawClient> client,
                       raw::serve::RawClient::Connect("127.0.0.1", daemon.port(), client_options));
  RAW_RETURN_NOT_OK(client->Hello());
  // Warm-up: the first scan tokenizes the file and builds its positional map.
  for (const char* sql : {"SELECT COUNT(*) FROM t", "SELECT MAX(col5) FROM t WHERE col0 < 3"}) {
    ScopedSpan span(&tracer, "serve.warmup");
    RAW_ASSIGN_OR_RETURN(raw::serve::QueryResponse r, client->Query(sql));
    RAW_RETURN_NOT_OK(r.status);
  }
  const double setup_s = NowS() - cfg.start_s;
  compute_expected();

  RAW_ASSIGN_OR_RETURN(const std::string stats_before, client->Stats());
  std::vector<Sample> samples;
  std::vector<double> round_s;
  std::vector<int64_t> hit_qids, miss_qids;
  std::vector<double> server_plan_ms, server_exec_ms;
  std::unordered_set<std::string> seen;
  int64_t sent = 0, responses = 0;
  bool transport_failed = false;
  const double t0 = NowS();
  for (int round = 0; !transport_failed && (round == 0 || NowS() - t0 < cfg.seconds);
       ++round) {
    const std::vector<Request> requests = Round(cfg.seed, round, dashboard, *oracle);
    const double start = NowS();
    for (size_t i = 0; i < requests.size() && !transport_failed; ++i) {
      const Request& req = requests[i];
      const int64_t qid = static_cast<int64_t>(round) * kRoundRequests + static_cast<int64_t>(i);
      const bool hit = !seen.insert(req.sql).second;
      ++sent;
      const double t = NowS();
      raw::StatusOr<raw::serve::QueryResponse> r = [&] {
        ScopedSpan span(&tracer, "client.query", qid);
        return client->Query(req.sql);
      }();
      const double latency = NowS() - t;
      samples.push_back({latency, hit});
      (hit ? hit_qids : miss_qids).push_back(qid);
      ++report->attempted;
      if (r.ok()) ++responses;
      if (!r.ok()) transport_failed = true;  // timed out or lost: the connection is gone
      if (!r.ok() || !r->status.ok()) {
        ++report->failed;
        std::fprintf(stderr, "perfbench: %s: %s\n", req.sql.c_str(),
                     (r.ok() ? r->status : r.status()).ToString().c_str());
        continue;
      }
      if (!hit) {  // hits are answered from the result cache
        server_plan_ms.push_back(r->plan_seconds * 1e3);
        server_exec_ms.push_back(r->execute_seconds * 1e3);
      }
      Answer got;
      AppendBatch(r->table, &got);
      if (req.grouped) got.SortRows();
      report->checks.Expect("answer", SameAnswer(req.expected, got), [&] {
        return req.sql + " => " + got.ToString() + ", expected " + req.expected.ToString();
      });
    }
    round_s.push_back(NowS() - start);
  }
  RAW_ASSIGN_OR_RETURN(const std::string stats_after, client->Stats());
  std::vector<double> stats_rtt;
  if (cfg.trace) {
    for (int i = 0; i < 50; ++i) {
      ScopedSpan span(&tracer, "client.stats");
      RAW_RETURN_NOT_OK(client->Stats().status());
    }
    stats_rtt = tracer.Seconds("client.stats");
  }
  const double daemon_rss_mb = PeakRssMb(std::to_string(daemon.pid()));
  (void)client->Goodbye();
  daemon.Stop();

  auto delta = [&](const char* object, const char* key) {
    return StatsNumber(stats_after, object, key) - StatsNumber(stats_before, object, key);
  };
  report->checks.Expect(
      "serve_counts",
      ServeCountsMatch(sent, responses, static_cast<int64_t>(delta("admission", "admitted"))),
      [&] {
        return "sent " + std::to_string(sent) + ", responses " + std::to_string(responses) +
               ", admitted " + std::to_string(delta("admission", "admitted"));
      });

  std::vector<double> all, hits, misses;
  for (const Sample& s : samples) {
    all.push_back(s.latency_s * 1e3);
    (s.hit ? hits : misses).push_back(s.latency_s * 1e3);
  }
  double total_s = 0;
  for (double s : round_s) total_s += s;
  Values& e = out->end_to_end;
  e["setup_s"] = setup_s;
  e["peak_rss_mb"] = daemon_rss_mb;
  e["round_s"] = Median(round_s);
  e["cold_ms"] = Median(misses);
  e["warm_ms"] = Median(hits);
  e["p50_ms"] = Median(all);
  e["tail_ms"] = Quantile(all, 0.99);
  e["qps"] = static_cast<double>(samples.size()) / total_s;

  if (cfg.trace) {
    Values& l = out->per_layer;
    const std::map<int64_t, double> query_s = tracer.SecondsByQuery("client.query");
    auto median_ms = [&](const std::vector<int64_t>& qids) {
      std::vector<double> v;
      for (int64_t q : qids) v.push_back(query_s.at(q) * 1e3);
      return Median(v);
    };
    l["workload.generate_s"] = tracer.Seconds("workload.generate").at(0);
    l["serve.start_s"] = tracer.Seconds("serve.start").at(0);
    l["engine.open_ms"] = Median(server_plan_ms);
    l["scan.drain_ms"] = Median(server_exec_ms);
    l["serve.stats_rtt_ms"] = Median(stats_rtt) * 1e3;
    l["serve.hit_ms"] = median_ms(hit_qids);
    l["serve.miss_ms"] = median_ms(miss_qids);
    l["jit.compiles"] = delta("jit_cache", "compiles");
    l["jit.compile_s"] = delta("jit_cache", "compile_seconds");
    l["jit.hit_ratio"] = Share(delta("jit_cache", "hits"), delta("jit_cache", "misses"));
    l["engine.fused_share"] = Share(delta("planner", "plans_fused"), delta("planner", "plans_interpreted"));
    l["engine.shred_cache.hit_ratio"] = Share(delta("shred_cache", "hits"), delta("shred_cache", "misses"));
    l["engine.shred_cache.mb"] = StatsNumber(stats_after, "shred_cache", "bytes") / 1048576.0;
    l["engine.shred_cache.evictions"] = delta("shred_cache", "evictions");
    l["csv.pmap_mb"] = StatsNumber(stats_after, "tables", "pmap_bytes") / 1048576.0;
    l["autotune.result_cache.hit_ratio"] =
        Share(delta("result_cache", "hits"), delta("result_cache", "misses"));
    l["engine.plans_per_request"] = delta("", "queries_planned") / static_cast<double>(sent);
    l["autotune.materializer.actions_completed"] = delta("materializer", "actions_completed");
    l["serve.admission.shed"] = delta("admission", "shed");
    RAW_RETURN_NOT_OK(tracer.Write(".bench_trace/rawd_serve-seed" + std::to_string(cfg.seed) + ".jsonl"));
  }
  return raw::Status::OK();
}

}  // namespace pb
