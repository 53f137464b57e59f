#include "perfbench/src/oracle.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace pb {

OTable SpecColumns(const raw::TableSpec& spec, const std::vector<int>& columns) {
  raw::TableDataSource source(spec);
  OTable t;
  t.rows = spec.rows;
  for (int c : columns) {
    OColumn& col = t.cols["col" + std::to_string(c)];
    const raw::DataType type = spec.columns[static_cast<size_t>(c)].type;
    col.is_float = type == raw::DataType::kFloat32 || type == raw::DataType::kFloat64;
    col.v.resize(static_cast<size_t>(spec.rows));
    for (int64_t r = 0; r < spec.rows; ++r) {
      const raw::Datum d = source.Value(r, c);
      col.v[static_cast<size_t>(r)] = *d.AsDouble();
    }
  }
  return t;
}

void RefTables(const raw::EventGenOptions& options, const std::string& prefix,
               OTables* out) {
  OTable& events = (*out)[prefix + "_events"];
  static const char* kGroups[] = {"_muons", "_electrons", "_jets"};
  raw::EventGenerator gen(options);
  for (int64_t i = 0; i < options.num_events; ++i) {
    const raw::Event e = gen.Next();
    events.cols["eventID"].v.push_back(static_cast<double>(e.event_id));
    events.cols["runNumber"].v.push_back(e.run_number);
    ++events.rows;
    for (int g = 0; g < 3; ++g) {
      OTable& t = (*out)[prefix + kGroups[g]];
      for (const raw::Particle& p : e.particles(g)) {
        t.cols["eventID"].v.push_back(static_cast<double>(e.event_id));
        t.cols["pt"].v.push_back(p.pt);
        t.cols["eta"].v.push_back(p.eta);
        t.cols["phi"].v.push_back(p.phi);
        ++t.rows;
      }
    }
  }
  for (int g = 0; g < 3; ++g) {
    for (const char* c : {"pt", "eta", "phi"}) {
      (*out)[prefix + kGroups[g]].cols[c].is_float = true;
    }
  }
}

OTable GoodRunsTable(const raw::EventGenOptions& options) {
  OTable t;
  for (int32_t r : raw::EventGenerator::GoodRuns(options)) {
    t.cols["run"].v.push_back(r);
    ++t.rows;
  }
  return t;
}

namespace {

struct Acc {
  int64_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
  }
};

/// A column reference resolved to (which side of the join, its values).
struct Ref {
  int side = 0;  // 0 = FROM table, 1 = JOIN table
  const OColumn* col = nullptr;
};

Ref Resolve(const Query& q, const OTables& tables, const std::string& name) {
  std::string table = q.table;
  std::string col = name;
  const size_t dot = name.find('.');
  if (dot != std::string::npos) {
    table = name.substr(0, dot);
    col = name.substr(dot + 1);
  }
  const OTable& t = tables.at(table);
  auto it = t.cols.find(col);
  if (it == t.cols.end()) throw std::out_of_range("oracle: no column " + name);
  return Ref{table == q.table ? 0 : 1, &it->second};
}

}  // namespace

Answer Evaluate(const Query& q, const OTables& tables) {
  const OTable& left = tables.at(q.table);
  std::vector<Ref> preds;
  for (const Pred& p : q.preds) preds.push_back(Resolve(q, tables, p.col));
  std::vector<Ref> aggs;
  for (const AggItem& a : q.aggs) {
    aggs.push_back(a.col.empty() ? Ref{} : Resolve(q, tables, a.col));
  }
  const bool grouped = !q.group.empty();
  const Ref group = grouped ? Resolve(q, tables, q.group) : Ref{};

  // Join: right-side row ids by key.
  std::unordered_map<double, std::vector<int64_t>> right_rows;
  Ref lkey, rkey;
  if (!q.join_table.empty()) {
    lkey = Resolve(q, tables, q.join_left);
    rkey = Resolve(q, tables, q.join_right);
    for (size_t j = 0; j < rkey.col->v.size(); ++j) {
      right_rows[rkey.col->v[j]].push_back(static_cast<int64_t>(j));
    }
  }
  static const std::vector<int64_t> kNoJoin = {-1};

  std::map<double, std::vector<Acc>> groups;
  auto value = [](const Ref& r, int64_t i, int64_t j) {
    return r.col->v[static_cast<size_t>(r.side == 0 ? i : j)];
  };
  for (int64_t i = 0; i < left.rows; ++i) {
    const std::vector<int64_t>* matches = &kNoJoin;
    if (lkey.col != nullptr) {
      auto it = right_rows.find(lkey.col->v[static_cast<size_t>(i)]);
      if (it == right_rows.end()) continue;
      matches = &it->second;
    }
    for (int64_t j : *matches) {
      bool pass = true;
      for (size_t p = 0; p < preds.size() && pass; ++p) {
        const double v = value(preds[p], i, j);
        pass = q.preds[p].op == '<' ? v < q.preds[p].literal
                                    : v > q.preds[p].literal;
      }
      if (!pass) continue;
      std::vector<Acc>& accs = groups[grouped ? value(group, i, j) : 0.0];
      accs.resize(aggs.size());
      for (size_t a = 0; a < aggs.size(); ++a) {
        if (aggs[a].col == nullptr) {
          ++accs[a].count;
        } else {
          accs[a].Add(value(aggs[a], i, j));
        }
      }
    }
  }
  if (!grouped && groups.empty()) groups[0.0].resize(aggs.size());

  Answer out;
  if (grouped) out.is_float.push_back(group.col->is_float);
  for (size_t a = 0; a < aggs.size(); ++a) {
    const Agg kind = q.aggs[a].kind;
    out.is_float.push_back(kind == Agg::kAvg ||
                           (kind != Agg::kCount && aggs[a].col->is_float));
  }
  for (const auto& [key, accs] : groups) {
    std::vector<double> row;
    if (grouped) row.push_back(key);
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Acc& acc = accs[a];
      switch (q.aggs[a].kind) {
        case Agg::kCount:
          row.push_back(static_cast<double>(acc.count));
          break;
        case Agg::kSum:
          row.push_back(acc.sum);
          break;
        case Agg::kMin:
          row.push_back(acc.min);
          break;
        case Agg::kMax:
          row.push_back(acc.max);
          break;
        case Agg::kAvg:
          row.push_back(acc.count ? acc.sum / static_cast<double>(acc.count) : 0);
          break;
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;  // std::map iteration already sorts grouped rows by key
}

}  // namespace pb
