#include "serve/stats_json.h"

#include <sstream>

#include "format/format.h"

namespace raw {
namespace serve {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
void AppendJsonString(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// "key":value helpers; `first` tracks comma placement per object.
struct ObjectWriter {
  std::ostringstream& os;
  bool first = true;

  explicit ObjectWriter(std::ostringstream& out) : os(out) { os << '{'; }
  void Key(const char* key) {
    if (!first) os << ',';
    first = false;
    AppendJsonString(os, key);
    os << ':';
  }
  void Int(const char* key, int64_t v) {
    Key(key);
    os << v;
  }
  void Bool(const char* key, bool v) {
    Key(key);
    os << (v ? "true" : "false");
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    AppendJsonString(os, v);
  }
  void Close() { os << '}'; }
};

void CacheJson(std::ostringstream& os, const char* name,
               const CacheStats& c, ObjectWriter& parent) {
  parent.Key(name);
  ObjectWriter o(os);
  o.Int("entries", c.entries);
  o.Int("bytes", c.bytes);
  o.Int("hits", c.hits);
  o.Int("misses", c.misses);
  o.Int("evictions", c.evictions);
  o.Close();
}

}  // namespace

std::string EngineStatsJson(const EngineStats& stats) {
  std::ostringstream os;
  ObjectWriter root(os);

  CacheJson(os, "shred_cache", stats.shred_cache, root);

  root.Key("result_cache");
  {
    ObjectWriter o(os);
    o.Int("entries", stats.result_cache.entries);
    o.Int("bytes", stats.result_cache.bytes);
    o.Int("hits", stats.result_cache.hits);
    o.Int("misses", stats.result_cache.misses);
    o.Int("inserted", stats.result_cache.inserted);
    o.Int("invalidated", stats.result_cache.invalidated);
    o.Int("evictions", stats.result_cache.evictions);
    o.Close();
  }

  root.Key("materializer");
  {
    ObjectWriter o(os);
    o.Int("passes", stats.materializer.passes);
    o.Int("actions_started", stats.materializer.actions_started);
    o.Int("actions_completed", stats.materializer.actions_completed);
    o.Int("actions_preempted", stats.materializer.actions_preempted);
    o.Int("actions_failed", stats.materializer.actions_failed);
    o.Int("actions_skipped_budget", stats.materializer.actions_skipped_budget);
    o.Int("pmaps_built", stats.materializer.pmaps_built);
    o.Int("columns_cached", stats.materializer.columns_cached);
    o.Int("tables_loaded", stats.materializer.tables_loaded);
    o.Close();
  }

  root.Key("jit_cache");
  {
    ObjectWriter o(os);
    o.Int("entries", stats.jit_cache.entries);
    o.Int("hits", stats.jit_cache.hits);
    o.Int("misses", stats.jit_cache.misses);
    o.Int("compiles", stats.jit_cache.compiles);
    o.Key("compile_seconds");
    os << stats.jit_cache.total_compile_seconds;
    o.Bool("compiler_available", stats.jit_cache.compiler_available);
    o.Int("pending", stats.jit_cache.pending);
    o.Int("background_compiles", stats.jit_cache.background_compiles);
    o.Int("failed", stats.jit_cache.failed);
    o.Close();
  }

  root.Key("planner");
  {
    ObjectWriter o(os);
    o.Int("plans_fused", stats.plans_fused);
    o.Int("plans_interpreted", stats.plans_interpreted);
    o.Int("plans_jit_deferred", stats.plans_jit_deferred);
    o.Close();
  }

  root.Key("robustness");
  {
    ObjectWriter o(os);
    o.Int("rows_skipped", stats.rows_skipped);
    o.Int("rows_nulled", stats.rows_nulled);
    o.Int("io_faults", stats.io_faults);
    o.Int("faults_injected", stats.faults_injected);
    o.Close();
  }

  root.Key("admission");
  {
    ObjectWriter o(os);
    o.Int("admitted", stats.admission.admitted);
    o.Int("executed", stats.admission.executed);
    o.Int("shed", stats.admission.shed);
    o.Int("deadline_expired", stats.admission.deadline_expired);
    o.Int("queued", stats.admission.queued);
    o.Int("running", stats.admission.running);
    o.Close();
  }

  root.Int("sessions_opened", stats.sessions_opened);
  root.Int("sessions_closed", stats.sessions_closed);
  root.Int("queries_parsed", stats.queries_parsed);
  root.Int("queries_planned", stats.queries_planned);
  root.Int("queries_executed", stats.queries_executed);
  root.Int("queries_inflight", stats.queries_inflight);

  root.Key("tables");
  os << '[';
  bool first_table = true;
  for (const TableStats& t : stats.tables) {
    if (!first_table) os << ',';
    first_table = false;
    ObjectWriter o(os);
    o.Str("name", t.name);
    o.Str("format", std::string(FileFormatToString(t.format)));
    o.Int("row_count", t.row_count);
    o.Int("pmap_rows", t.pmap_rows);
    o.Int("pmap_bytes", t.pmap_bytes);
    o.Int("format_state_bytes", t.format_state_bytes);
    o.Bool("loaded", t.loaded);
    o.Int("scans", t.scans);
    o.Int("version", t.version);
    o.Int("file_size", t.file_size);
    o.Int("file_mtime_ns", t.file_mtime_ns);
    o.Int("stale_publishes", t.stale_publishes);
    o.Int("signature_checks", t.signature_checks);
    o.Key("column_accesses");
    os << '[';
    for (size_t i = 0; i < t.column_accesses.size(); ++i) {
      if (i > 0) os << ',';
      os << t.column_accesses[i];
    }
    os << ']';
    o.Close();
  }
  os << ']';

  root.Close();
  return os.str();
}

}  // namespace serve
}  // namespace raw
