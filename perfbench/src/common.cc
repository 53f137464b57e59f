#include "perfbench/src/common.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

raw::Status SyncDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return raw::Status::IOError("cannot open " + dir);
  raw::Status st = raw::Status::OK();
  while (dirent* e = ::readdir(d)) {
    if (e->d_type != DT_REG) continue;
    const std::string path = dir + "/" + e->d_name;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) st = raw::Status::IOError("cannot sync " + path);
    if (fd >= 0) ::close(fd);
  }
  ::closedir(d);
  return st;
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

double Share(double a, double b) { return a + b > 0 ? a / (a + b) : 0; }

void EngineTotals::Add(const raw::EngineStats& b, const raw::EngineStats& a) {
  compiles += static_cast<double>(a.jit_cache.compiles - b.jit_cache.compiles);
  compile_s += a.jit_cache.total_compile_seconds - b.jit_cache.total_compile_seconds;
  jit_hits += static_cast<double>(a.jit_cache.hits - b.jit_cache.hits);
  jit_misses += static_cast<double>(a.jit_cache.misses - b.jit_cache.misses);
  fused += static_cast<double>(a.plans_fused - b.plans_fused);
  interpreted += static_cast<double>(a.plans_interpreted - b.plans_interpreted);
  shred_hits += static_cast<double>(a.shred_cache.hits - b.shred_cache.hits);
  shred_misses += static_cast<double>(a.shred_cache.misses - b.shred_cache.misses);
  shred_evictions +=
      static_cast<double>(a.shred_cache.evictions - b.shred_cache.evictions);
  pool_hits += static_cast<double>(a.ref_pool.hits - b.ref_pool.hits);
  pool_misses += static_cast<double>(a.ref_pool.misses - b.ref_pool.misses);
}

void EngineTotals::Report(double rounds, Values* v) const {
  (*v)["jit.compiles"] = compiles / rounds;
  (*v)["jit.compile_s"] = compile_s / rounds;
  (*v)["jit.hit_ratio"] = Share(jit_hits, jit_misses);
  (*v)["engine.fused_share"] = Share(fused, interpreted);
  (*v)["engine.shred_cache.hit_ratio"] = Share(shred_hits, shred_misses);
  (*v)["engine.shred_cache.evictions"] = shred_evictions / rounds;
  (*v)["eventsim.ref_pool.hit_ratio"] = Share(pool_hits, pool_misses);
}

// --- Tracer -----------------------------------------------------------------

int Tracer::Begin(const char* name, int64_t query) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (query < 0 && parent >= 0) query = spans_[static_cast<size_t>(parent)].query;
  spans_.push_back(Span{name, NowNs(), 0, parent, query});
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<int64_t, double> Tracer::SecondsByQuery(const char* name) const {
  std::map<int64_t, double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out[s.query] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return out;
}

std::vector<double> Tracer::Seconds(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfSeconds(const char* name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) {
      out.push_back(static_cast<double>(spans_[i].end_ns -
                                        spans_[i].start_ns - child_ns[i]) *
                    1e-9);
    }
  }
  return out;
}

raw::Status Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return raw::Status::IOError("cannot write " + path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"query\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.query));
  }
  if (std::fclose(f) != 0) return raw::Status::IOError("cannot write " + path);
  return raw::Status::OK();
}

// --- Answer -----------------------------------------------------------------

void Answer::SortRows() { std::sort(rows.begin(), rows.end()); }

std::string Answer::ToString() const {
  std::ostringstream os;
  os.precision(17);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r == 8) {
      os << "... (" << rows.size() << " rows)";
      break;
    }
    os << (r ? " | " : "");
    for (size_t c = 0; c < rows[r].size(); ++c) os << (c ? "," : "") << rows[r][c];
  }
  return os.str();
}

bool SameAnswer(const Answer& expected, const Answer& actual) {
  if (expected.rows.size() != actual.rows.size()) return false;
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    const auto& e = expected.rows[r];
    const auto& a = actual.rows[r];
    if (e.size() != a.size() || e.size() != expected.is_float.size()) return false;
    for (size_t c = 0; c < e.size(); ++c) {
      if (expected.is_float[c]) {
        if (std::fabs(e[c] - a[c]) > kRelTol * std::max(1.0, std::fabs(e[c]))) {
          return false;
        }
      } else if (e[c] != a[c]) {
        return false;
      }
    }
  }
  return true;
}

void AppendBatch(const raw::ColumnBatch& batch, Answer* out) {
  const int ncols = batch.num_columns();
  if (out->is_float.empty()) {
    for (int c = 0; c < ncols; ++c) {
      const raw::DataType t = batch.column(c)->type();
      out->is_float.push_back(t == raw::DataType::kFloat32 ||
                              t == raw::DataType::kFloat64);
    }
  }
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    std::vector<double> row(static_cast<size_t>(ncols));
    for (int c = 0; c < ncols; ++c) {
      const raw::Column& col = *batch.column(c);
      double v = 0;
      switch (col.type()) {
        case raw::DataType::kBool:
          v = col.Value<uint8_t>(r);
          break;
        case raw::DataType::kInt32:
          v = col.Value<int32_t>(r);
          break;
        case raw::DataType::kInt64:
          v = static_cast<double>(col.Value<int64_t>(r));
          break;
        case raw::DataType::kFloat32:
          v = col.Value<float>(r);
          break;
        case raw::DataType::kFloat64:
          v = col.Value<double>(r);
          break;
        case raw::DataType::kString:
          v = std::nan("");
          break;
      }
      row[static_cast<size_t>(c)] = v;
    }
    out->rows.push_back(std::move(row));
  }
}

// --- Checks -----------------------------------------------------------------

bool SameAcrossFormats(const std::vector<Answer>& answers) {
  for (size_t i = 1; i < answers.size(); ++i) {
    if (!SameAnswer(answers[0], answers[i])) return false;
  }
  return true;
}

bool GroupCountsAddUp(const Answer& grouped, size_t count_col,
                      const Answer& ungrouped) {
  if (ungrouped.rows.size() != 1 || ungrouped.rows[0].empty()) return false;
  double sum = 0;
  for (const auto& row : grouped.rows) {
    if (row.size() <= count_col) return false;
    sum += row[count_col];
  }
  return sum == ungrouped.rows[0][0];
}

bool ServeCountsMatch(int64_t sent, int64_t responses, int64_t admitted_delta) {
  return sent == responses && sent == admitted_delta;
}

void Checks::Expect(const std::string& category, bool ok,
                    const std::function<std::string()>& what) {
  auto& [pass, fail] = counts_[category];
  if (ok) {
    ++pass;
    return;
  }
  ++fail;
  if (failed_total_++ < 5) {
    std::fprintf(stderr, "perfbench: check %s failed: %s\n", category.c_str(),
                 what().c_str());
  }
}

std::vector<std::string> Checks::FailedCategories() const {
  std::vector<std::string> out;
  for (const auto& [name, c] : counts_) {
    if (c.second > 0) out.push_back(name);
  }
  return out;
}

// --- Query ------------------------------------------------------------------

static const char* AggName(Agg a) {
  switch (a) {
    case Agg::kCount:
      return "COUNT";
    case Agg::kSum:
      return "SUM";
    case Agg::kMin:
      return "MIN";
    case Agg::kMax:
      return "MAX";
    case Agg::kAvg:
      return "AVG";
  }
  return "?";
}

std::string Query::Sql(int param) const {
  std::ostringstream os;
  os << "SELECT ";
  if (!group.empty()) os << group << ", ";
  for (size_t i = 0; i < aggs.size(); ++i) {
    os << (i ? ", " : "") << AggName(aggs[i].kind) << "("
       << (aggs[i].col.empty() ? "*" : aggs[i].col) << ")";
  }
  os << " FROM " << table;
  if (!join_table.empty()) {
    os << " JOIN " << join_table << " ON " << join_left << " = " << join_right;
  }
  for (size_t i = 0; i < preds.size(); ++i) {
    os << (i ? " AND " : " WHERE ") << preds[i].col << " " << preds[i].op << " ";
    if (static_cast<int>(i) == param) {
      os << "?";
    } else if (preds[i].literal == std::floor(preds[i].literal)) {
      os << static_cast<int64_t>(preds[i].literal);
    } else {
      os.precision(17);
      os << preds[i].literal;
    }
  }
  if (!group.empty()) os << " GROUP BY " << group;
  return os.str();
}

// --- timed engine calls -------------------------------------------------------

static Outcome Drain(raw::StatusOr<raw::Cursor> cursor, double open_start,
                     Tracer* tracer) {
  Outcome out;
  out.open_s = NowS() - open_start;
  if (!cursor.ok()) {
    out.status = cursor.status();
    return out;
  }
  const double drain_start = NowS();
  while (true) {
    ScopedSpan next(tracer, "cursor.next");
    raw::StatusOr<raw::ColumnBatch> batch = cursor->Next();
    if (!batch.ok()) {
      out.status = batch.status();
      break;
    }
    if (batch->empty()) break;  // the cursor's end-of-stream contract
    AppendBatch(*batch, &out.answer);
  }
  out.drain_s = NowS() - drain_start;
  return out;
}

Outcome RunSql(raw::Session* session, const std::string& sql, Tracer* tracer,
               int64_t qid) {
  ScopedSpan query(tracer, "query", qid);
  const double start = NowS();
  raw::StatusOr<raw::Cursor> cursor = [&] {
    ScopedSpan open(tracer, "engine.open");
    return session->Stream(sql);
  }();
  return Drain(std::move(cursor), start, tracer);
}

Outcome RunPrepared(raw::PreparedQuery* prepared,
                    const std::vector<raw::Datum>& params, Tracer* tracer,
                    int64_t qid) {
  ScopedSpan query(tracer, "query", qid);
  const double start = NowS();
  raw::StatusOr<raw::Cursor> cursor = [&] {
    ScopedSpan open(tracer, "engine.open");
    return prepared->ExecuteStream(params);
  }();
  return Drain(std::move(cursor), start, tracer);
}

}  // namespace pb
