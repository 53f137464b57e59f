// multiformat_analytics: one logical fact table stored as binary, JSONL and
// csv.gz, a small dimension CSV, and the REF event file with its good-runs
// CSV (§6). Each round is a cold pass on a fresh engine and a warm pass on
// the same engine with the same query shapes and new literals (Table 3's
// cold and warm columns). The shred-cache budget is set below the columns
// the passes touch, so the warm pass evicts and re-reads.
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "csv/csv_writer.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"
#include "workload/data_gen.h"

namespace pb {
namespace {

/// What a query exercises; per-layer drain times are reported by label.
enum Label { kGroupBy, kHashJoin, kBin, kJsonl, kZcsv, kRef, kNumLabels };
const char* kLabelMetric[kNumLabels] = {"columnar.group_by", "columnar.hash_join",
                                        "binfmt", "jsonl", "zcsv", "eventsim"};

struct Step {
  Query q;
  Label label;
};

/// The fact table: two low-cardinality keys, eight uniform int32 columns and
/// two float64 columns.
raw::TableSpec FactSpec(uint64_t seed, int64_t rows) {
  raw::TableSpec spec = raw::TableSpec::UniformInt32("fact", 12, rows, seed);
  spec.columns[0].max_value = 99;
  spec.columns[1].max_value = 9999;
  for (int c : {10, 11}) {
    spec.columns[static_cast<size_t>(c)].type = raw::DataType::kFloat64;
    spec.columns[static_cast<size_t>(c)].max_value = 1000;
  }
  return spec;
}

constexpr int kDimRows = 100;

/// Dimension row k: region in [0, 10), derived from the seed.
double DimRegion(uint64_t seed, int k) {
  raw::Rng rng(seed * 31 + static_cast<uint64_t>(k));
  return static_cast<double>(rng.NextBelow(10));
}

raw::EventGenOptions RefOptions(uint64_t seed, bool small) {
  raw::EventGenOptions o;
  o.seed = seed + 1000;
  o.num_events = small ? 2000 : 40000;
  return o;
}

/// One pass: the same shapes every pass, literals drawn per pass. Steps 4-6
/// are one query over the three formats; step 2's counts must add up to
/// step 3's.
std::vector<Step> Pass(uint64_t seed, int pass) {
  raw::Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(pass) * 101 + 3);
  auto lit = [&] { return static_cast<double>(rng.NextInt32(400000000, 600000000)); };
  auto quarter = [&](int lo, int hi) { return rng.NextInt32(lo, hi) / 4.0; };
  const double l_group = lit(), l_count = lit(), l_fmt = lit(), l_json = lit();
  const double region = rng.NextInt32(3, 7);
  const double pt = quarter(60, 100), eta = quarter(4, 10);
  const double event = rng.NextInt32(15000, 25000);
  std::vector<Step> steps = {
      {{.table = "fbin", .group = "col0",
        .aggs = {{Agg::kCount, ""}, {Agg::kSum, "col3"}}, .preds = {{"col2", '<', l_group}}}, kGroupBy},
      {{.table = "fbin", .group = "col1", .aggs = {{Agg::kCount, ""}},
        .preds = {{"col4", '<', l_count}}}, kGroupBy},
      {{.table = "fbin", .aggs = {{Agg::kCount, ""}}, .preds = {{"col4", '<', l_count}}}, kBin},
  };
  for (auto [table, label] : {std::pair{"fbin", kBin}, {"fjson", kJsonl}, {"fgz", kZcsv}}) {
    steps.push_back({{.table = table,
                      .aggs = {{Agg::kCount, ""}, {Agg::kMax, "col6"}, {Agg::kSum, "col10"}},
                      .preds = {{"col7", '<', l_fmt}}}, label});
  }
  std::vector<Step> rest = {
      {{.table = "fbin", .join_table = "dim", .join_left = "fbin.col0", .join_right = "dim.k",
        .aggs = {{Agg::kCount, ""}, {Agg::kSum, "fbin.col5"}}, .preds = {{"dim.region", '<', region}}}, kHashJoin},
      {{.table = "fjson", .group = "col0", .aggs = {{Agg::kMax, "col8"}},
        .preds = {{"col9", '<', l_json}}}, kGroupBy},
      {{.table = "fgz", .join_table = "dim", .join_left = "fgz.col0", .join_right = "dim.k",
        .aggs = {{Agg::kCount, ""}, {Agg::kMax, "fgz.col11"}}, .preds = {{"dim.region", '>', region}}}, kHashJoin},
      {{.table = "ev_muons", .aggs = {{Agg::kCount, ""}, {Agg::kMax, "pt"}, {Agg::kSum, "pt"}},
        .preds = {{"pt", '>', pt}}}, kRef},
      {{.table = "ev_jets", .aggs = {{Agg::kCount, ""}, {Agg::kMin, "phi"}},
        .preds = {{"eta", '<', eta}, {"eta", '>', -eta}}}, kRef},
      {{.table = "ev_events", .join_table = "good_runs", .join_left = "ev_events.runNumber",
        .join_right = "good_runs.run", .aggs = {{Agg::kCount, ""}},
        .preds = {{"ev_events.eventID", '<', event}}}, kHashJoin},
  };
  steps.insert(steps.end(), rest.begin(), rest.end());
  return steps;
}

}  // namespace

raw::Status MultiformatAnalytics(const RunConfig& cfg, RunReport* report,
                                 WorkloadResult* out, bool print_expected) {
  const int64_t rows = cfg.small ? 3000 : 200000;
  const std::vector<Step> passes[2] = {Pass(cfg.seed, 0), Pass(cfg.seed, 1)};

  std::vector<Answer> expected[2];
  auto compute_expected = [&] {
    OTables t;
    t["fbin"] = SpecColumns(FactSpec(cfg.oracle_seed, rows), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
    OTable& dim = t["dim"];
    for (int k = 0; k < kDimRows; ++k) {
      dim.cols["k"].v.push_back(k);
      dim.cols["region"].v.push_back(DimRegion(cfg.oracle_seed, k));
      ++dim.rows;
    }
    RefTables(RefOptions(cfg.oracle_seed, cfg.small), "ev", &t);
    t["good_runs"] = GoodRunsTable(RefOptions(cfg.oracle_seed, cfg.small));
    for (int p = 0; p < 2; ++p) {
      for (const Step& s : passes[p]) {
        // The three fact copies hold the same values: answer on "fbin".
        Query q = s.q;
        if (q.table == "fjson" || q.table == "fgz") {
          auto rename = [&](std::string* col) {
            if (col->rfind(s.q.table + ".", 0) == 0) *col = "fbin" + col->substr(s.q.table.size());
          };
          q.table = "fbin";
          rename(&q.join_left);
          for (AggItem& a : q.aggs) rename(&a.col);
          for (Pred& pr : q.preds) rename(&pr.col);
        }
        expected[p].push_back(Evaluate(q, t));
      }
    }
  };
  if (print_expected) {
    compute_expected();
    for (int p = 0; p < 2; ++p) {
      for (size_t i = 0; i < passes[p].size(); ++i) {
        std::printf("[%s pass] %s\n  => %s\n", p ? "warm" : "cold",
                    passes[p][i].q.Sql().c_str(), expected[p][i].ToString().c_str());
      }
    }
    return raw::Status::OK();
  }

  Tracer tracer(cfg.trace);
  const raw::TableSpec fact = FactSpec(cfg.seed, rows);
  const raw::EventGenOptions ref = RefOptions(cfg.seed, cfg.small);
  const std::string dir = cfg.workdir + "/";
  {
    ScopedSpan span(&tracer, "workload.generate");
    RAW_RETURN_NOT_OK(raw::WriteBinaryFile(fact, dir + "fact.bin"));
    RAW_RETURN_NOT_OK(raw::WriteJsonlFile(fact, dir + "fact.jsonl"));
    RAW_RETURN_NOT_OK(raw::WriteCsvGzTable(fact, dir + "fact.csv.gz"));
    raw::CsvWriter dim(dir + "dim.csv");
    RAW_RETURN_NOT_OK(dim.Open());
    for (int k = 0; k < kDimRows; ++k) {
      dim.AppendInt32(k);
      dim.AppendInt32(static_cast<int32_t>(DimRegion(cfg.seed, k)));
      dim.EndRow();
    }
    RAW_RETURN_NOT_OK(dim.Close());
    RAW_RETURN_NOT_OK(raw::WriteRefFile(dir + "events.ref", ref));
    RAW_RETURN_NOT_OK(raw::WriteGoodRunsCsv(dir + "good_runs.csv", ref));
    RAW_RETURN_NOT_OK(SyncDir(cfg.workdir));
  }
  raw::RawEngineOptions options;
  options.planner.num_threads = kPlannerThreads;
  // Below the ~19 MB of fact columns the passes touch across the three
  // copies (and likewise at self-test scale), so warm passes evict.
  options.shred_cache_bytes = cfg.small ? (64 << 10) : (4 << 20);
  const raw::Schema schema = fact.ToSchema();
  auto fresh_engine = [&]() -> raw::StatusOr<std::unique_ptr<raw::RawEngine>> {
    auto engine = std::make_unique<raw::RawEngine>(options);
    ScopedSpan span(&tracer, "engine.register");
    RAW_RETURN_NOT_OK(engine->RegisterBinary("fbin", dir + "fact.bin", schema));
    RAW_RETURN_NOT_OK(engine->RegisterJsonl("fjson", dir + "fact.jsonl", schema));
    RAW_RETURN_NOT_OK(engine->RegisterCsvGz("fgz", dir + "fact.csv.gz", schema));
    RAW_RETURN_NOT_OK(engine->RegisterCsv(
        "dim", dir + "dim.csv", raw::Schema{{"k", raw::DataType::kInt32},
                                            {"region", raw::DataType::kInt32}}));
    RAW_RETURN_NOT_OK(engine->RegisterRef("ev", dir + "events.ref"));
    RAW_RETURN_NOT_OK(engine->RegisterCsv("good_runs", dir + "good_runs.csv",
                                          raw::Schema{{"run", raw::DataType::kInt32}}));
    return engine;
  };
  raw::StatusOr<std::unique_ptr<raw::RawEngine>> engine = fresh_engine();
  RAW_RETURN_NOT_OK(engine.status());
  const double setup_s = NowS() - cfg.start_s;
  compute_expected();

  std::vector<double> pass_s[2], round_s, all_s, jsonl_mb, zcsv_mb;
  std::vector<int64_t> qids[2][kNumLabels];
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
    for (int p = 0; p < 2; ++p) {
      std::vector<Answer> answers;
      const double start = NowS();
      for (size_t i = 0; i < passes[p].size(); ++i) {
        const Step& s = passes[p][i];
        Outcome o = RunSql(session.get(), s.q.Sql(), &tracer, qid);
        if (!s.q.group.empty()) o.answer.SortRows();
        ++report->attempted;
        all_s.push_back(o.total_s());
        qids[p][s.label].push_back(qid++);
        if (!o.status.ok()) {
          ++report->failed;
          std::fprintf(stderr, "perfbench: %s: %s\n", s.q.Sql().c_str(),
                       o.status.ToString().c_str());
        } else {
          report->checks.Expect("answer", SameAnswer(expected[p][i], o.answer), [&] {
            return s.q.Sql() + " => " + o.answer.ToString() + ", expected " +
                   expected[p][i].ToString();
          });
        }
        answers.push_back(std::move(o.answer));
      }
      pass_s[p].push_back(NowS() - start);
      report->checks.Expect("formats", SameAcrossFormats({answers[3], answers[4], answers[5]}),
                            [] { return std::string("one query over bin, JSONL and csv.gz"); });
      report->checks.Expect("group_sum", GroupCountsAddUp(answers[1], 1, answers[2]), [] {
        return std::string("per-group counts add up to the ungrouped count");
      });
    }
    round_s.push_back(pass_s[0].back() + pass_s[1].back());
    const raw::EngineStats after = eng.Stats();
    totals.Add(before, after);
    const raw::TableStats* j = after.table("fjson");
    const raw::TableStats* z = after.table("fgz");
    jsonl_mb.push_back(j ? static_cast<double>(j->pmap_bytes + j->format_state_bytes) / 1048576.0 : 0);
    zcsv_mb.push_back(z ? static_cast<double>(z->format_state_bytes) / 1048576.0 : 0);
    ++rounds;
  }
  engine->reset();

  double total_s = 0;
  for (double s : round_s) total_s += s;
  Values& e = out->end_to_end;
  e["setup_s"] = setup_s;
  e["peak_rss_mb"] = PeakRssMb();
  e["round_s"] = Median(round_s);
  e["cold_ms"] = Median(pass_s[0]) * 1e3;
  e["warm_ms"] = Median(pass_s[1]) * 1e3;
  e["p50_ms"] = Median(all_s) * 1e3;
  e["tail_ms"] = Quantile(all_s, 0.9) * 1e3;
  e["qps"] = static_cast<double>(all_s.size()) / total_s;

  if (cfg.trace) {
    Values& l = out->per_layer;
    const auto drains = tracer.SecondsByQuery("cursor.next");
    auto drain_ms = [&](int p, Label label) {
      std::vector<double> v;
      for (int64_t q : qids[p][label]) v.push_back(drains.count(q) ? drains.at(q) * 1e3 : 0);
      return Median(v);
    };
    for (Label label : {kBin, kJsonl, kZcsv, kRef}) {
      l[std::string(kLabelMetric[label]) + ".cold_drain_ms"] = drain_ms(0, label);
      l[std::string(kLabelMetric[label]) + ".warm_drain_ms"] = drain_ms(1, label);
    }
    l["columnar.group_by_ms"] = drain_ms(1, kGroupBy);
    l["columnar.hash_join_ms"] = drain_ms(1, kHashJoin);
    std::vector<double> drain_all;
    for (const auto& [q, s] : drains) drain_all.push_back(s);
    double generate_s = 0;
    for (double s : tracer.Seconds("workload.generate")) generate_s += s;
    l["workload.generate_s"] = generate_s;
    l["engine.register_s"] = Median(tracer.Seconds("engine.register"));
    l["engine.open_ms"] = Median(tracer.SelfSeconds("engine.open")) * 1e3;
    l["scan.drain_ms"] = Median(drain_all) * 1e3;
    l["jsonl.pmap_mb"] = Median(jsonl_mb);
    l["zcsv.block_index_mb"] = Median(zcsv_mb);
    totals.Report(rounds, &l);
    RAW_RETURN_NOT_OK(tracer.Write(".bench_trace/multiformat_analytics-seed" +
                                   std::to_string(cfg.seed) + ".jsonl"));
  }
  return raw::Status::OK();
}

}  // namespace pb
