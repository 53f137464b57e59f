// Quickstart: query a CSV file in place — no loading step.
//
//   1. Write a small CSV file.
//   2. Register it with the engine (name + schema + format).
//   3. Open a session and run SQL through it. The engine generates a JIT
//      access path for the file/query combination (running the interpreted
//      scan while the kernel compiles, or without a host compiler) and
//      caches positional map + column shreds for next time.
//
// Every query goes through a session: session->Query() plans the query,
// drains its cursor and returns the whole result. See csv_analytics /
// multiformat_join for the rest of the session API (Prepare with `?`
// parameters, streaming cursors, concurrent sessions).

#include <cstdio>

#include "common/temp_dir.h"
#include "csv/csv_writer.h"
#include "engine/raw_engine.h"

using raw::CsvWriter;
using raw::Datum;
using raw::DataType;
using raw::QueryResult;
using raw::RawEngine;
using raw::Schema;
using raw::TempDir;

int main() {
  // --- 1. a raw CSV file (id, city temperature readings) --------------------
  auto dir = TempDir::Create("raw_quickstart_");
  if (!dir.ok()) {
    fprintf(stderr, "%s\n", dir.status().ToString().c_str());
    return 1;
  }
  std::string path = dir->FilePath("readings.csv");
  {
    CsvWriter writer(path);
    if (!writer.Open().ok()) return 1;
    struct Reading {
      int id;
      const char* city;
      double celsius;
    } readings[] = {
        {1, "geneva", 12.5}, {2, "geneva", 14.0},  {3, "lausanne", 13.25},
        {4, "geneva", -2.0}, {5, "lausanne", 21.5}, {6, "zurich", 18.75},
    };
    for (const Reading& r : readings) {
      writer.AppendInt32(r.id);
      writer.AppendString(r.city);
      writer.AppendFloat64(r.celsius);
      writer.EndRow();
    }
    if (!writer.Close().ok()) return 1;
  }

  // --- 2. register the raw file ----------------------------------------------
  RawEngine engine;
  Schema schema{{"id", DataType::kInt32},
                {"city", DataType::kString},
                {"celsius", DataType::kFloat64}};
  if (auto st = engine.RegisterCsv("readings", path, schema); !st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // --- 3. query it in place through a session --------------------------------
  auto session = engine.OpenSession();
  const char* queries[] = {
      "SELECT COUNT(*) FROM readings",
      "SELECT MAX(celsius), MIN(celsius), AVG(celsius) FROM readings",
      "SELECT COUNT(*) FROM readings WHERE celsius > 13.0",
      "SELECT id, celsius FROM readings WHERE celsius > 13.0 LIMIT 3",
  };
  for (const char* sql : queries) {
    auto result = session->Query(sql);
    if (!result.ok()) {
      fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    printf("> %s\n%s\n", sql, result->table.ToString().c_str());
  }

  raw::EngineStats stats = engine.Stats();
  printf("adaptive state: %lld cached shred entries, %lld compiled kernels\n",
         static_cast<long long>(stats.shred_cache.entries),
         static_cast<long long>(stats.jit_cache.entries));
  return 0;
}
