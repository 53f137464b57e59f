// csv_explore: an analyst's first sessions on a raw CSV file. Each round is
// one session on a fresh engine: single-table filter/aggregate queries that
// first touch columns and revisit them with new literals, re-executions of a
// prepared statement with fresh `?` values, and, halfway through, a second
// generation of the file renamed over the registered path.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>

#include "common/rng.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"
#include "workload/data_gen.h"

namespace pb {
namespace {

constexpr int kCols = 30;
constexpr uint64_t kSecondGeneration = 0x9E3779B97F4A7C15ull;

struct Step {
  Query q;
  int gen = 0;            // 0: the first file generation, 1: its replacement
  bool prepared = false;  // re-executes the session's prepared statement
  bool revisit = false;   // every column was touched before in this generation
};

/// The session script: the same every round of a run. Per generation, five
/// columns a..e spread over the row: first touches of (a, b), the prepared
/// statement's columns, then (d, e), interleaved with revisits. The seed
/// draws the literals, each selecting 40-60% of the rows, so a query's cost
/// does not swing with the seed.
std::vector<Step> Script(uint64_t seed, Query* prepared) {
  static const char* kColumns[2][5] = {
      {"col2", "col7", "col13", "col21", "col28"},
      {"col5", "col10", "col16", "col19", "col26"}};
  raw::Rng rng(seed * 0x2545F4914F6CDD1Dull + 11);
  auto lit = [&] { return static_cast<double>(rng.NextInt32(400000000, 600000000)); };
  std::vector<Step> steps;
  for (int gen = 0; gen < 2; ++gen) {
    const std::string a = kColumns[gen][0], b = kColumns[gen][1],
                      c = kColumns[gen][2], d = kColumns[gen][3],
                      e = kColumns[gen][4];
    // The prepared statement is bound once (in the first generation) and
    // re-executed in both; its predicate literal is the `?` parameter.
    if (gen == 0) {
      *prepared = Query{.table = "t",
                        .aggs = {{Agg::kMax, c}, {Agg::kCount, ""}},
                        .preds = {{a, '<', 0}}};
    }
    const std::string pa = prepared->preds[0].col;
    const std::string pc = prepared->aggs[0].col;
    std::vector<Step> gen_steps = {
        {Query{.table = "t", .aggs = {{Agg::kMax, a}, {Agg::kCount, ""}}, .preds = {{b, '<', lit()}}}},
        {Query{.table = "t", .aggs = {{Agg::kSum, a}}, .preds = {{b, '>', lit()}}}},
        {Query{.table = "t", .aggs = {{Agg::kMax, pc}, {Agg::kCount, ""}}, .preds = {{pa, '<', lit()}}}, 0, true},
        {Query{.table = "t", .aggs = {{Agg::kCount, ""}}, .preds = {{c, '<', lit()}, {b, '>', lit()}}}},
        {Query{.table = "t", .aggs = {{Agg::kMax, d}, {Agg::kMin, d}}, .preds = {{e, '<', lit()}}}},
        {Query{.table = "t", .aggs = {{Agg::kMax, pc}, {Agg::kCount, ""}}, .preds = {{pa, '<', lit()}}}, 0, true},
        {Query{.table = "t", .aggs = {{Agg::kSum, e}, {Agg::kCount, ""}}, .preds = {{d, '<', lit()}}}},
        {Query{.table = "t", .aggs = {{Agg::kAvg, b}}, .preds = {{a, '<', lit()}}}},
    };
    std::set<std::string> touched;
    for (Step& s : gen_steps) {
      s.gen = gen;
      std::set<std::string> cols;
      for (const AggItem& g : s.q.aggs) {
        if (!g.col.empty()) cols.insert(g.col);
      }
      for (const Pred& p : s.q.preds) cols.insert(p.col);
      s.revisit = std::includes(touched.begin(), touched.end(), cols.begin(), cols.end());
      touched.insert(cols.begin(), cols.end());
      steps.push_back(s);
    }
  }
  return steps;
}

raw::TableSpec GenSpec(uint64_t seed, int gen, int64_t rows) {
  return raw::TableSpec::UniformInt32("t", kCols, rows,
                                      seed + (gen ? kSecondGeneration : 0));
}

/// Points `target` at `source`'s file by renaming a fresh hard link over it:
/// the registered path changes generation atomically, as a file replaced in
/// place by another process would.
raw::Status Install(const std::string& source, const std::string& target) {
  const std::string tmp = target + ".next";
  ::unlink(tmp.c_str());
  if (::link(source.c_str(), tmp.c_str()) != 0 ||
      ::rename(tmp.c_str(), target.c_str()) != 0) {
    return raw::Status::IOError("cannot install " + source + " as " + target);
  }
  return raw::Status::OK();
}

}  // namespace

raw::Status CsvExplore(const RunConfig& cfg, RunReport* report,
                       WorkloadResult* out, bool print_expected) {
  const int64_t rows = cfg.small ? 4000 : 200000;
  Query prepared_query;
  const std::vector<Step> steps = Script(cfg.seed, &prepared_query);

  // Expected answers: each step on its own generation, and every
  // second-generation step on the first generation too, for the check that
  // the replacement changed the answer.
  // Computed after set-up is timed.
  std::vector<Answer> expected(steps.size()), expected_old(steps.size());
  auto compute_expected = [&] {
    std::vector<int> used;
    for (const Step& s : steps) {
      for (const AggItem& g : s.q.aggs) {
        if (!g.col.empty()) used.push_back(std::stoi(g.col.substr(3)));
      }
      for (const Pred& p : s.q.preds) used.push_back(std::stoi(p.col.substr(3)));
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    OTables gens[2];
    for (int g = 0; g < 2; ++g) gens[g]["t"] = SpecColumns(GenSpec(cfg.oracle_seed, g, rows), used);
    for (size_t i = 0; i < steps.size(); ++i) {
      expected[i] = Evaluate(steps[i].q, gens[steps[i].gen]);
      expected_old[i] = Evaluate(steps[i].q, gens[0]);
    }
  };
  if (print_expected) {
    compute_expected();
    std::printf("-- prepared: %s\n", prepared_query.Sql(0).c_str());
    for (size_t i = 0; i < steps.size(); ++i) {
      std::printf("[gen %d%s] %s\n  => %s\n", steps[i].gen,
                  steps[i].prepared ? ", prepared" : "", steps[i].q.Sql().c_str(),
                  expected[i].ToString().c_str());
    }
    return raw::Status::OK();
  }

  Tracer tracer(cfg.trace);
  const std::string path_a = cfg.workdir + "/explore_gen0.csv";
  const std::string path_b = cfg.workdir + "/explore_gen1.csv";
  const std::string path = cfg.workdir + "/explore.csv";
  {
    ScopedSpan span(&tracer, "workload.generate");
    RAW_RETURN_NOT_OK(raw::WriteCsvFile(GenSpec(cfg.seed, 0, rows), path_a));
    RAW_RETURN_NOT_OK(raw::WriteCsvFile(GenSpec(cfg.seed, 1, rows), path_b));
    RAW_RETURN_NOT_OK(SyncDir(cfg.workdir));
  }
  const raw::Schema schema = GenSpec(cfg.seed, 0, rows).ToSchema();
  raw::RawEngineOptions options;
  options.planner.num_threads = kPlannerThreads;

  // Set-up ends once the first session's engine has its file registered.
  auto fresh_engine = [&]() -> raw::StatusOr<std::unique_ptr<raw::RawEngine>> {
    RAW_RETURN_NOT_OK(Install(path_a, path));
    auto engine = std::make_unique<raw::RawEngine>(options);
    ScopedSpan span(&tracer, "engine.register");
    RAW_RETURN_NOT_OK(engine->RegisterCsv("t", path, schema));
    return engine;
  };
  raw::StatusOr<std::unique_ptr<raw::RawEngine>> engine = fresh_engine();
  RAW_RETURN_NOT_OK(engine.status());
  const double setup_s = NowS() - cfg.start_s;
  compute_expected();

  std::vector<double> session_s, first_s, all_s, revisit_s;
  std::vector<double> pmap_mb, shred_mb;
  std::vector<int64_t> first_qids, readapt_qids;
  EngineTotals totals;
  int64_t qid = 0;
  const double t0 = NowS();
  int rounds = 0;
  while (rounds == 0 || NowS() - t0 < cfg.seconds) {
    if (rounds > 0) {
      engine = fresh_engine();
      RAW_RETURN_NOT_OK(engine.status());
    }
    raw::RawEngine& eng = **engine;
    const raw::EngineStats before = eng.Stats();
    std::unique_ptr<raw::Session> session = eng.OpenSession();
    std::optional<raw::PreparedQuery> prepared;
    raw::Status prepare_status = raw::Status::OK();
    const double start = NowS();
    for (size_t i = 0; i < steps.size(); ++i) {
      const Step& s = steps[i];
      if (i > 0 && s.gen != steps[i - 1].gen) RAW_RETURN_NOT_OK(Install(path_b, path));
      if (s.prepared && !prepared.has_value() && prepare_status.ok()) {
        ScopedSpan span(&tracer, "session.prepare");
        auto p = session->Prepare(prepared_query.Sql(0));
        if (p.ok()) {
          prepared.emplace(std::move(*p));
        } else {
          prepare_status = p.status();
        }
      }
      Outcome o;
      if (s.prepared) {
        if (prepared.has_value()) {
          o = RunPrepared(&*prepared,
                          {raw::Datum::Int32(static_cast<int32_t>(s.q.preds[0].literal))},
                          &tracer, qid);
        } else {
          o.status = prepare_status;
        }
      } else {
        o = RunSql(session.get(), s.q.Sql(), &tracer, qid);
      }
      ++report->attempted;
      auto what = [&] {
        return s.q.Sql() + " => " + o.answer.ToString() + ", expected " +
               expected[i].ToString();
      };
      if (!o.status.ok()) {
        ++report->failed;
        std::fprintf(stderr, "perfbench: %s: %s\n", s.q.Sql().c_str(),
                     o.status.ToString().c_str());
      } else {
        report->checks.Expect("answer", SameAnswer(expected[i], o.answer), what);
        if (s.gen == 1) {
          report->checks.Expect("replacement",
                                SameAnswer(expected[i], o.answer) &&
                                    !SameAnswer(expected_old[i], expected[i]),
                                what);
        }
      }
      all_s.push_back(o.total_s());
      if (i == 0) {
        first_s.push_back(o.total_s());
        first_qids.push_back(qid);
      } else if (s.gen != steps[i - 1].gen) {
        readapt_qids.push_back(qid);
      }
      if (s.revisit) revisit_s.push_back(o.total_s());
      ++qid;
    }
    session_s.push_back(NowS() - start);
    const raw::EngineStats after = eng.Stats();
    totals.Add(before, after);
    const raw::TableStats* t = after.table("t");
    pmap_mb.push_back(t != nullptr ? static_cast<double>(t->pmap_bytes) / 1048576.0 : 0);
    shred_mb.push_back(static_cast<double>(after.shred_cache.bytes) / 1048576.0);
    ++rounds;
  }
  engine->reset();

  double total_session_s = 0;
  for (double s : session_s) total_session_s += s;
  Values& e = out->end_to_end;
  e["setup_s"] = setup_s;
  e["peak_rss_mb"] = PeakRssMb();
  e["round_s"] = Median(session_s);
  e["cold_ms"] = Median(first_s) * 1e3;
  e["warm_ms"] = Median(revisit_s) * 1e3;
  e["p50_ms"] = Median(all_s) * 1e3;
  // p85, not p90: 2 of every 16 queries are the cold and the re-adapting
  // query, whose costs differ, and p90 falls inside that pair, so it moves
  // with how the two happen to overlap; over 8 runs its interquartile spread
  // was 0.13 against p85's 0.07. A 25 s run has 6 or more sessions, so at
  // least 14 samples lie beyond p85.
  e["tail_ms"] = Quantile(all_s, 0.85) * 1e3;
  e["qps"] = static_cast<double>(all_s.size()) / total_session_s;

  if (cfg.trace) {
    Values& l = out->per_layer;
    const auto drains = tracer.SecondsByQuery("cursor.next");
    const auto queries = tracer.SecondsByQuery("query");
    std::vector<double> drain_all, first_drains, readapts;
    for (const auto& [q, s] : drains) drain_all.push_back(s);
    for (int64_t q : first_qids) first_drains.push_back(drains.count(q) ? drains.at(q) : 0);
    for (int64_t q : readapt_qids) readapts.push_back(queries.at(q));
    double generate_s = 0;
    for (double s : tracer.Seconds("workload.generate")) generate_s += s;
    l["workload.generate_s"] = generate_s;
    l["engine.register_s"] = Median(tracer.Seconds("engine.register"));
    l["engine.open_ms"] = Median(tracer.SelfSeconds("engine.open")) * 1e3;
    l["scan.drain_ms"] = Median(drain_all) * 1e3;
    l["csv.first_drain_s"] = Median(first_drains);
    l["csv.readapt_s"] = Median(readapts);
    l["csv.pmap_mb"] = Median(pmap_mb);
    l["engine.shred_cache.mb"] = Median(shred_mb);
    totals.Report(rounds, &l);
    RAW_RETURN_NOT_OK(tracer.Write(".bench_trace/csv_explore-seed" +
                                   std::to_string(cfg.seed) + ".jsonl"));
  }
  return raw::Status::OK();
}

}  // namespace pb
