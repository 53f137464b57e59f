// Hostile-input hardening suite: the deterministic I/O fault-injection
// harness, the fault matrix (fault kind × format driver × thread count —
// every injected fault must surface as a typed Status, never a crash or a
// silent wrong answer), malformed-row policies (skip / null-fill) checked
// against ground truth at 1 and 4 threads, staleness regressions
// (truncate-under-warm-pmap, mutate-under-claim, failed reopens under
// pinned file handles), and the serving tier's typed-error /
// retry-reconnect behaviour.

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/mmap_file.h"
#include "common/scan_health.h"
#include "csv/positional_map.h"
#include "engine/catalog.h"
#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "jsonl/jsonl_scan.h"
#include "scan/insitu_csv_scan.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/stats_json.h"
#include "serve/wire.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"
#include "zcsv/gzip_block.h"

namespace raw {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector: spec grammar and firing semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ParseSpecAcceptsTheDocumentedGrammar) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultInjector::ParseSpec("eio", &spec, &error)) << error;
  EXPECT_EQ(FaultKind::kEio, spec.kind);
  EXPECT_TRUE(spec.path_substr.empty());

  ASSERT_TRUE(FaultInjector::ParseSpec(
      "truncate:path=lineitem.csv,offset=4096,nth=2,max=3", &spec, &error))
      << error;
  EXPECT_EQ(FaultKind::kTruncate, spec.kind);
  EXPECT_EQ("lineitem.csv", spec.path_substr);
  EXPECT_EQ(4096, spec.offset);
  EXPECT_EQ(2, spec.nth);
  EXPECT_EQ(3, spec.max_fires);

  ASSERT_TRUE(
      FaultInjector::ParseSpec("bitflip:sample=0.25,seed=7", &spec, &error))
      << error;
  EXPECT_EQ(FaultKind::kBitFlip, spec.kind);
  EXPECT_DOUBLE_EQ(0.25, spec.sample);
  EXPECT_EQ(7u, spec.seed);

  ASSERT_TRUE(FaultInjector::ParseSpec("short", &spec, &error)) << error;
  EXPECT_EQ(FaultKind::kShortRead, spec.kind);
}

TEST(FaultInjectorTest, ParseSpecRejectsMalformedInput) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(FaultInjector::ParseSpec("gremlins", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("eio:bogus=1", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("eio:nth", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("eio:nth=0", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("eio:offset=-4", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("truncate:sample=2", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("truncate:sample=x", &spec, &error));
}

TEST(FaultInjectorTest, CheckMatchesPathCountsNthAndCapsFires) {
  auto& injector = FaultInjector::Global();
  const int64_t fired_before = injector.fired();
  FaultSpec spec;
  spec.kind = FaultKind::kEio;
  spec.path_substr = "alpha";
  spec.nth = 2;
  spec.max_fires = 1;
  injector.Arm(spec);
  int64_t off = 0;
  EXPECT_EQ(FaultKind::kNone, injector.Check("beta.csv", 100, &off));
  EXPECT_EQ(FaultKind::kNone, injector.Check("alpha.csv", 100, &off));
  EXPECT_EQ(FaultKind::kEio, injector.Check("alpha.csv", 100, &off));
  // max=1: eligible again but the fire budget is spent.
  EXPECT_EQ(FaultKind::kNone, injector.Check("alpha.csv", 100, &off));
  EXPECT_EQ(fired_before + 1, injector.fired());
  injector.Disarm();
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(FaultKind::kNone, injector.Check("alpha.csv", 100, &off));
}

TEST(FaultInjectorTest, OffsetDefaultsToMidpointAndClampsToSize) {
  auto& injector = FaultInjector::Global();
  FaultSpec spec;
  spec.kind = FaultKind::kTruncate;
  injector.Arm(spec);
  int64_t off = -1;
  EXPECT_EQ(FaultKind::kTruncate, injector.Check("f", 100, &off));
  EXPECT_EQ(50, off);
  spec.offset = 5000;
  injector.Arm(spec);
  EXPECT_EQ(FaultKind::kTruncate, injector.Check("f", 100, &off));
  EXPECT_EQ(99, off);
  injector.Disarm();
}

TEST(FaultInjectorTest, ZeroSampleNeverFires) {
  auto& injector = FaultInjector::Global();
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.sample = 0.0;
  spec.seed = 1;
  injector.Arm(spec);
  int64_t off = 0;
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(FaultKind::kNone, injector.Check("f", 100, &off));
  }
  injector.Disarm();
}

// ---------------------------------------------------------------------------
// Fault matrix: every fault kind on every format driver is a typed error
// ---------------------------------------------------------------------------

class FaultMatrixTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
    spec_ = TableSpec::UniformInt32("mx", 6, 400, /*seed=*/5);
    ASSERT_OK(WriteCsvFile(spec_, Path("mx.csv")));
    ASSERT_OK(WriteBinaryFile(spec_, Path("mx.bin")));
    ASSERT_OK(WriteJsonlFile(spec_, Path("mx.jsonl")));
    ASSERT_OK(WriteCsvGzTable(spec_, Path("mgz.csv.gz"), /*block_bytes=*/2048));
    EventGenOptions ev;
    ev.num_events = 120;
    ASSERT_OK(WriteRefFile(Path("mx.ref"), ev, /*cluster_rows=*/32));
  }

  void TearDown() override { FaultInjector::Global().Disarm(); }

  /// Byte offset of the first digit at/after `anchor` in `path`'s contents
  /// (targets the fault at a byte a scan is guaranteed to interpret).
  int64_t DigitOffsetAfter(const std::string& path, const std::string& anchor,
                           int skip_commas = 0) {
    auto contents = ReadFileToString(path);
    EXPECT_OK(contents.status());
    size_t pos = contents->find(anchor);
    EXPECT_NE(std::string::npos, pos) << anchor << " not in " << path;
    pos += anchor.size();
    for (int c = 0; c < skip_commas; ++c) {
      pos = contents->find(',', pos);
      EXPECT_NE(std::string::npos, pos);
      ++pos;
    }
    while (pos < contents->size() && !std::isdigit((*contents)[pos])) ++pos;
    return static_cast<int64_t>(pos);
  }

  /// Offset `back` bytes before EOF (targets a gzip member's CRC trailer).
  int64_t TailOffset(const std::string& path, int64_t back) {
    auto size = FileSize(path);
    EXPECT_OK(size.status());
    return static_cast<int64_t>(*size) - back;
  }

  /// Offset cutting a file a few bytes into its second row/line.
  int64_t MidSecondRowOffset(const std::string& path, int64_t extra) {
    auto contents = ReadFileToString(path);
    EXPECT_OK(contents.status());
    size_t nl = contents->find('\n');
    EXPECT_NE(std::string::npos, nl);
    return static_cast<int64_t>(nl) + extra;
  }

  TableSpec spec_;
};

TEST_F(FaultMatrixTest, EveryFaultKindOnEveryDriverYieldsATypedError) {
  struct Case {
    const char* label;
    FaultKind kind;
    const char* file;      // path substring the fault matches
    int64_t offset;        // -1 = injector default
    bool fails_at_register;  // REF opens its file at registration
  };
  const std::string csv = Path("mx.csv");
  const std::string bin = Path("mx.bin");
  const std::string jsonl = Path("mx.jsonl");
  const std::string gz = Path("mgz.csv.gz");
  const std::string ref = Path("mx.ref");
  const std::vector<Case> cases = {
      {"csv/eio", FaultKind::kEio, "mx.csv", -1, false},
      {"bin/eio", FaultKind::kEio, "mx.bin", -1, false},
      {"jsonl/eio", FaultKind::kEio, "mx.jsonl", -1, false},
      {"gz/eio", FaultKind::kEio, "mgz.csv.gz", -1, false},
      {"ref/eio", FaultKind::kEio, "mx.ref", -1, true},
      // Truncation offsets are aimed mid-row / mid-record so the cut is
      // structurally visible (a cut exactly on a row boundary is a valid
      // shorter file — CSV cannot distinguish that from intent).
      {"csv/truncate", FaultKind::kTruncate, "mx.csv",
       MidSecondRowOffset(csv, 3), false},
      {"bin/truncate", FaultKind::kTruncate, "mx.bin", 13, false},
      {"jsonl/truncate", FaultKind::kTruncate, "mx.jsonl",
       MidSecondRowOffset(jsonl, 5), false},
      {"gz/truncate", FaultKind::kTruncate, "mgz.csv.gz", TailOffset(gz, 7),
       false},
      {"ref/truncate", FaultKind::kTruncate, "mx.ref", -1, true},
      // Bit flips target a byte the query interprets: a digit of a scanned
      // column (XOR 0x40 turns digits into letters), the compressed stream
      // (CRC/inflate failure), the REF magic. Fixed-width binary data has no
      // redundancy to detect a flipped payload bit — excluded by design.
      {"csv/bitflip", FaultKind::kBitFlip, "mx.csv",
       DigitOffsetAfter(csv, "", /*skip_commas=*/5), false},
      {"jsonl/bitflip", FaultKind::kBitFlip, "mx.jsonl",
       DigitOffsetAfter(jsonl, "\"col5\":"), false},
      {"gz/bitflip", FaultKind::kBitFlip, "mgz.csv.gz", -1, false},
      {"ref/bitflip", FaultKind::kBitFlip, "mx.ref", 0, true},
  };

  auto& injector = FaultInjector::Global();
  for (const Case& c : cases) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.label) + " x" + std::to_string(threads));
      FaultSpec spec;
      spec.kind = c.kind;
      spec.path_substr = c.file;
      spec.offset = c.offset;
      injector.Arm(spec);
      const int64_t fired_before = injector.fired();

      RawEngine engine;
      auto session = engine.OpenSession();
      Status failure;
      std::string sql = "SELECT MAX(col5) FROM t WHERE col1 < 900000000";
      if (std::strstr(c.file, ".ref") != nullptr) {
        failure = engine.RegisterRef("ev", Path("mx.ref"));
        sql = "SELECT COUNT(*) FROM ev_events";
      } else if (std::strstr(c.file, ".bin") != nullptr) {
        ASSERT_OK(engine.RegisterBinary("t", bin, spec_.ToSchema()));
      } else if (std::strstr(c.file, ".jsonl") != nullptr) {
        ASSERT_OK(engine.RegisterJsonl("t", jsonl, spec_.ToSchema()));
      } else if (std::strstr(c.file, ".csv.gz") != nullptr) {
        ASSERT_OK(engine.RegisterCsvGz("t", gz, spec_.ToSchema()));
      } else {
        ASSERT_OK(engine.RegisterCsv("t", csv, spec_.ToSchema()));
      }

      if (failure.ok()) {
        PlannerOptions options;
        options.access_path = AccessPathKind::kInSitu;
        options.num_threads = threads;
        auto result = session->Query(sql, options);
        failure = result.status();
      } else {
        EXPECT_TRUE(c.fails_at_register);
      }
      injector.Disarm();

      ASSERT_FALSE(failure.ok()) << "fault was swallowed";
      EXPECT_TRUE(failure.code() == StatusCode::kIOError ||
                  failure.code() == StatusCode::kParseError ||
                  failure.code() == StatusCode::kDataCorruption)
          << failure.ToString();
      EXPECT_GT(injector.fired(), fired_before) << "fault never fired";
      EXPECT_GT(engine.Stats().faults_injected, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed-row policies: deterministic, thread-count-invariant
// ---------------------------------------------------------------------------

class MalformedRowTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
  }

  static int64_t Scalar(RawEngine& engine, const std::string& sql,
                        const PlannerOptions& options) {
    auto session = engine.OpenSession();
    auto result = session->Query(sql, options);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return INT64_MIN;
    auto datum = result->Scalar();
    EXPECT_TRUE(datum.ok()) << sql;
    return datum.ok() ? *datum->AsInt64() : INT64_MIN;
  }
};

TEST_F(MalformedRowTest, CsvSkipAndNullFillMatchGroundTruthAtAnyThreadCount) {
  // 240 rows of 3 int columns; every 40th row carries a non-numeric col2.
  std::string text;
  int64_t good_sum = 0;
  int64_t bad_rows = 0;
  for (int i = 0; i < 240; ++i) {
    const bool bad = i % 40 == 20;
    text += std::to_string(i) + "," + std::to_string(i % 7) + ",";
    if (bad) {
      text += "oops\n";
      ++bad_rows;
    } else {
      text += std::to_string(3 * i) + "\n";
      good_sum += 3 * i;
    }
  }
  ASSERT_OK(WriteStringToFile(Path("m.csv"), text));
  const Schema schema{{"col0", DataType::kInt32},
                      {"col1", DataType::kInt32},
                      {"col2", DataType::kInt32}};

  // Strict default: the malformed value is a typed parse error.
  {
    RawEngine engine;
    auto session = engine.OpenSession();
    ASSERT_OK(engine.RegisterCsv("t", Path("m.csv"), schema));
    PlannerOptions strict;
    strict.access_path = AccessPathKind::kInSitu;
    auto result =
        session->Query("SELECT SUM(col2) FROM t WHERE col1 < 7", strict);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kParseError, result.status().code());
  }

  for (auto policy :
       {MalformedRowPolicy::kSkip, MalformedRowPolicy::kNullFill}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(MalformedRowPolicyToString(policy)) + " x" +
                   std::to_string(threads));
      RawEngine engine;
      auto session = engine.OpenSession();
      ASSERT_OK(engine.RegisterCsv("t", Path("m.csv"), schema));
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.num_threads = threads;
      options.malformed_row_policy = policy;

      // Both policies exclude the damaged values from the sum (skip drops
      // the rows; null-fill zeroes them).
      EXPECT_EQ(good_sum,
                Scalar(engine, "SELECT SUM(col2) FROM t WHERE col1 < 7",
                       options));
      // Skip drops the rows from COUNT; null-fill keeps them (col2 = 0
      // still satisfies the predicate).
      const int64_t expected_count =
          policy == MalformedRowPolicy::kSkip ? 240 - bad_rows : 240;
      EXPECT_EQ(expected_count,
                Scalar(engine,
                       "SELECT COUNT(*) FROM t WHERE col2 < 1000000000",
                       options));

      ASSERT_OK_AND_ASSIGN(
          QueryResult result,
          session->Query("SELECT SUM(col2) FROM t WHERE col1 < 7", options));
      if (policy == MalformedRowPolicy::kSkip) {
        EXPECT_EQ(bad_rows, result.rows_skipped);
        EXPECT_EQ(0, result.rows_nulled);
        EXPECT_GT(engine.Stats().rows_skipped, 0);
      } else {
        EXPECT_EQ(bad_rows, result.rows_nulled);
        EXPECT_EQ(0, result.rows_skipped);
        EXPECT_GT(engine.Stats().rows_nulled, 0);
      }
      // Tolerant plans announce themselves and never run fused/JIT paths.
      EXPECT_NE(std::string::npos,
                result.plan_description.find("[malformed-rows="))
          << result.plan_description;
      EXPECT_EQ(0, engine.Stats().plans_fused);
    }
  }
}

TEST_F(MalformedRowTest, JsonlSkipAndNullFillSurviveStructuralDamage) {
  // 100 lines; every 20th is not JSON at all, plus one type-mismatched
  // value (valid JSON, non-numeric string in an int column).
  std::string text;
  int64_t good_sum = 0;
  int64_t bad_lines = 0;
  for (int i = 0; i < 100; ++i) {
    if (i % 20 == 10) {
      text += "{oops not json\n";
      ++bad_lines;
    } else if (i == 55) {
      text += "{\"a\": 55, \"b\": \"zap\"}\n";
      ++bad_lines;
    } else {
      text += "{\"a\": " + std::to_string(i) + ", \"b\": " +
              std::to_string(2 * i) + "}\n";
      good_sum += 2 * i;
    }
  }
  ASSERT_OK(WriteStringToFile(Path("m.jsonl"), text));
  const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};

  {
    RawEngine engine;
    auto session = engine.OpenSession();
    ASSERT_OK(engine.RegisterJsonl("t", Path("m.jsonl"), schema));
    PlannerOptions strict;
    strict.access_path = AccessPathKind::kInSitu;
    auto result = session->Query("SELECT SUM(b) FROM t WHERE a < 1000", strict);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kParseError, result.status().code());
  }

  for (auto policy :
       {MalformedRowPolicy::kSkip, MalformedRowPolicy::kNullFill}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(MalformedRowPolicyToString(policy)) + " x" +
                   std::to_string(threads));
      RawEngine engine;
      auto session = engine.OpenSession();
      ASSERT_OK(engine.RegisterJsonl("t", Path("m.jsonl"), schema));
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.num_threads = threads;
      options.malformed_row_policy = policy;

      EXPECT_EQ(good_sum,
                Scalar(engine, "SELECT SUM(b) FROM t WHERE a < 1000",
                       options));
      const int64_t expected_count =
          policy == MalformedRowPolicy::kSkip ? 100 - bad_lines : 100;
      EXPECT_EQ(expected_count,
                Scalar(engine, "SELECT COUNT(*) FROM t WHERE b < 1000",
                       options));

      ASSERT_OK_AND_ASSIGN(
          QueryResult result,
          session->Query("SELECT SUM(b) FROM t WHERE a < 1000", options));
      if (policy == MalformedRowPolicy::kSkip) {
        EXPECT_EQ(bad_lines, result.rows_skipped);
      } else {
        EXPECT_EQ(bad_lines, result.rows_nulled);
      }
    }
  }
}

TEST_F(MalformedRowTest, EngineStatsJsonCarriesTheRobustnessCounters) {
  std::string text = "1,2\n3,x\n5,6\n";
  ASSERT_OK(WriteStringToFile(Path("j.csv"), text));
  const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("t", Path("j.csv"), schema));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.malformed_row_policy = MalformedRowPolicy::kSkip;
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       session->Query("SELECT SUM(b) FROM t WHERE b < 100",
                                      options));
  EXPECT_EQ(1, result.rows_skipped);
  const std::string json = serve::EngineStatsJson(engine.Stats());
  EXPECT_NE(std::string::npos, json.find("\"robustness\"")) << json;
  EXPECT_NE(std::string::npos, json.find("\"rows_skipped\":1")) << json;
}

TEST_F(MalformedRowTest, LimitOverflowIsATypedParseError) {
  ASSERT_OK(WriteStringToFile(Path("l.csv"), "1\n2\n3\n"));
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(
      engine.RegisterCsv("t", Path("l.csv"), Schema{{"a", DataType::kInt32}}));
  auto spec =
      session->Parse("SELECT COUNT(*) FROM t LIMIT 99999999999999999999");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(StatusCode::kParseError, spec.status().code());
  EXPECT_NE(std::string::npos, spec.status().message().find("LIMIT"))
      << spec.status().ToString();
  ASSERT_OK_AND_ASSIGN(QueryResult ok,
                       session->Query("SELECT COUNT(*) FROM t LIMIT 2"));
  (void)ok;
}

// ---------------------------------------------------------------------------
// Drain paths: Query is a stream drained by Consume, and every plan folds its
// scan health into the engine exactly once
// ---------------------------------------------------------------------------

class DrainPathTest : public testing::TempDirTest {
 protected:
  static constexpr int kRows = 60;
  static constexpr int64_t kBadRows = 6;  // every 10th row's col2

  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
    std::string csv;
    std::string jsonl;
    for (int i = 0; i < kRows; ++i) {
      const bool bad = i % 10 == 5;
      const std::string col2 = bad ? "oops" : std::to_string(3 * i);
      csv += std::to_string(i) + "," + std::to_string(i % 7) + "," + col2 +
             "\n";
      jsonl += "{\"col0\": " + std::to_string(i) +
               ", \"col1\": " + std::to_string(i % 7) +
               ", \"col2\": " + (bad ? "\"oops\"" : col2) + "}\n";
    }
    ASSERT_OK(WriteStringToFile(Path("d.csv"), csv));
    ASSERT_OK(WriteStringToFile(Path("d.jsonl"), jsonl));
    ASSERT_OK(WriteCsvGzFile(Path("d.csv.gz"), csv, /*block_bytes=*/256));
    ASSERT_OK(WriteBinaryFile(TableSpec::UniformInt32("d", 3, kRows, 3),
                              Path("d.bin")));
    EventGenOptions ev;
    ev.num_events = kRows;
    ASSERT_OK(WriteRefFile(Path("d.ref"), ev, /*cluster_rows=*/16));
  }

  void TearDown() override { FaultInjector::Global().Disarm(); }

  /// A fresh engine with `format`'s file registered as `t` (REF as `ev_*`).
  std::unique_ptr<RawEngine> NewEngine(const std::string& format) {
    auto engine = std::make_unique<RawEngine>();
    const Schema schema{{"col0", DataType::kInt32},
                        {"col1", DataType::kInt32},
                        {"col2", DataType::kInt32}};
    Status registered;
    if (format == "csv") {
      registered = engine->RegisterCsv("t", Path("d.csv"), schema);
    } else if (format == "bin") {
      registered = engine->RegisterBinary("t", Path("d.bin"), schema);
    } else if (format == "jsonl") {
      registered = engine->RegisterJsonl("t", Path("d.jsonl"), schema);
    } else if (format == "csv.gz") {
      registered = engine->RegisterCsvGz("t", Path("d.csv.gz"), schema);
    } else {
      registered = engine->RegisterRef("ev", Path("d.ref"));
    }
    EXPECT_OK(registered);
    return engine;
  }
};

TEST_F(DrainPathTest, QueryAndStreamConsumeAgreeOnEveryFormatAndPolicy) {
  const std::string sql = "SELECT col0, col2 FROM t WHERE col1 < 5";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"csv", sql},
      {"bin", sql},
      {"jsonl", sql},
      {"csv.gz", sql},
      {"ref", "SELECT runNumber, COUNT(*) FROM ev_events GROUP BY runNumber"},
  };
  for (const auto& [format, query] : cases) {
    const bool text = format == "csv" || format == "jsonl" ||
                      format == "csv.gz";
    for (auto policy : {MalformedRowPolicy::kFail, MalformedRowPolicy::kSkip,
                        MalformedRowPolicy::kNullFill}) {
      SCOPED_TRACE(format + " " +
                   std::string(MalformedRowPolicyToString(policy)));
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.num_threads = 1;
      options.malformed_row_policy = policy;
      // One engine per path, so both plan over the same cold state.
      auto query_engine = NewEngine(format);
      auto stream_engine = NewEngine(format);
      StatusOr<QueryResult> queried =
          query_engine->OpenSession()->Query(query, options);
      StatusOr<QueryResult> streamed = [&]() -> StatusOr<QueryResult> {
        auto session = stream_engine->OpenSession();
        RAW_ASSIGN_OR_RETURN(Cursor cursor, session->Stream(query, options));
        return cursor.Consume();
      }();

      ASSERT_EQ(queried.ok(), streamed.ok())
          << queried.status().ToString() << " vs "
          << streamed.status().ToString();
      if (queried.ok()) {
        EXPECT_EQ(queried->table.ToString(kRows),
                  streamed->table.ToString(kRows));
        EXPECT_EQ(queried->plan_description, streamed->plan_description);
        EXPECT_EQ(queried->rows_skipped, streamed->rows_skipped);
        EXPECT_EQ(queried->rows_nulled, streamed->rows_nulled);
        EXPECT_EQ(queried->io_faults, streamed->io_faults);
      } else {
        EXPECT_EQ(queried.status().code(), streamed.status().code());
      }
      // Each path raises the engine totals by what its result reported.
      const EngineStats by_query = query_engine->Stats();
      const EngineStats by_stream = stream_engine->Stats();
      EXPECT_EQ(by_query.rows_skipped, by_stream.rows_skipped);
      EXPECT_EQ(by_query.rows_nulled, by_stream.rows_nulled);
      EXPECT_EQ(by_query.io_faults, by_stream.io_faults);
      const int64_t bad = text ? kBadRows : 0;
      switch (policy) {
        case MalformedRowPolicy::kFail:
          EXPECT_EQ(queried.ok(), !text);
          EXPECT_EQ(by_stream.rows_skipped + by_stream.rows_nulled, 0);
          break;
        case MalformedRowPolicy::kSkip:
          ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
          EXPECT_EQ(streamed->rows_skipped, bad);
          EXPECT_EQ(by_stream.rows_skipped, bad);
          break;
        case MalformedRowPolicy::kNullFill:
          ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
          EXPECT_EQ(streamed->rows_nulled, bad);
          EXPECT_EQ(by_stream.rows_nulled, bad);
          break;
      }
    }
  }
}

TEST_F(DrainPathTest, AbandonedCursorFoldsItsCountsOnce) {
  // The only malformed rows are the first four, so the first batch has
  // seen all of them however far the scan has read.
  std::string csv;
  for (int i = 0; i < 400; ++i) {
    csv += std::to_string(i) + "," + (i < 4 ? "x" : std::to_string(i)) + "\n";
  }
  ASSERT_OK(WriteStringToFile(Path("a.csv"), csv));
  RawEngine engine;
  ASSERT_OK(engine.RegisterCsv(
      "t", Path("a.csv"),
      Schema{{"col0", DataType::kInt32}, {"col1", DataType::kInt32}}));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.num_threads = 1;
  options.batch_rows = 16;
  options.malformed_row_policy = MalformedRowPolicy::kSkip;
  auto session = engine.OpenSession();
  {
    ASSERT_OK_AND_ASSIGN(Cursor cursor,
                         session->Stream("SELECT col0, col1 FROM t", options));
    ASSERT_OK_AND_ASSIGN(ColumnBatch first, cursor.Next());
    ASSERT_GT(first.num_rows(), 0);
    ASSERT_FALSE(cursor.done());
    ASSERT_OK(cursor.Close());
    EXPECT_EQ(engine.Stats().rows_skipped, 4);
    ASSERT_OK(cursor.Close());
    EXPECT_EQ(engine.Stats().rows_skipped, 4);
  }  // destroying the closed cursor folds nothing more
  EXPECT_EQ(engine.Stats().rows_skipped, 4);
  {
    // Abandoned without Close: the destructor folds.
    ASSERT_OK_AND_ASSIGN(Cursor cursor,
                         session->Stream("SELECT col0, col1 FROM t", options));
    ASSERT_OK_AND_ASSIGN(ColumnBatch first, cursor.Next());
    ASSERT_GT(first.num_rows(), 0);
  }
  EXPECT_EQ(engine.Stats().rows_skipped, 8);
}

TEST_F(DrainPathTest, FailedDrainFoldsItsIoFaultsOnce) {
  const TableSpec spec = TableSpec::UniformInt32("g", 4, 400, /*seed=*/9);
  ASSERT_OK(WriteCsvGzTable(spec, Path("g.csv.gz"), /*block_bytes=*/2048));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.num_threads = 1;
  const std::string sql = "SELECT MAX(col3) FROM t WHERE col0 < 900000000";
  for (bool stream : {false, true}) {
    SCOPED_TRACE(stream ? "Stream" : "Query");
    // A flipped bit in the compressed stream fails one gzip member.
    FaultSpec fault;
    fault.kind = FaultKind::kBitFlip;
    fault.path_substr = "g.csv.gz";
    FaultInjector::Global().Arm(fault);
    RawEngine engine;
    ASSERT_OK(engine.RegisterCsvGz("t", Path("g.csv.gz"), spec.ToSchema()));
    auto session = engine.OpenSession();
    if (stream) {
      {
        StatusOr<Cursor> cursor = session->Stream(sql, options);
        Status failure = cursor.status();
        while (failure.ok()) {
          StatusOr<ColumnBatch> batch = cursor->Next();
          if (!batch.ok()) {
            failure = batch.status();
          } else if (batch->empty()) {
            break;
          }
        }
        EXPECT_EQ(failure.code(), StatusCode::kDataCorruption)
            << failure.ToString();
        if (cursor.ok()) {
          (void)cursor->Close();
          EXPECT_EQ(engine.Stats().io_faults, 1);
        }
      }
    } else {
      auto result = session->Query(sql, options);
      EXPECT_EQ(result.status().code(), StatusCode::kDataCorruption)
          << result.status().ToString();
    }
    FaultInjector::Global().Disarm();
    EXPECT_GT(engine.Stats().faults_injected, 0);
    EXPECT_EQ(engine.Stats().io_faults, 1);
  }
}

// ---------------------------------------------------------------------------
// Staleness regressions: maps must never outlive the bytes they index
// ---------------------------------------------------------------------------

class StalenessTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
  }

  void TearDown() override { FaultInjector::Global().Disarm(); }

  /// The per-format cases of the pinned-handle regressions.
  struct PinCase {
    const char* file;
    FileFormat format;
  };
  static std::vector<PinCase> PinCases() {
    return {{"pin.csv", FileFormat::kCsv},
            {"pin.bin", FileFormat::kBinary},
            {"pin.jsonl", FileFormat::kJsonl},
            {"pin.csv.gz", FileFormat::kCsvGz}};
  }

  /// Writes `spec` to `path` the way a well-behaved producer replaces a
  /// file — a new file renamed over the old one — so readers that mapped
  /// the old file keep its bytes.
  void ReplaceTable(const PinCase& c, const TableSpec& spec) {
    const std::string path = Path(c.file);
    const std::string next = path + ".next";
    switch (c.format) {
      case FileFormat::kBinary:
        ASSERT_OK(WriteBinaryFile(spec, next));
        break;
      case FileFormat::kJsonl:
        ASSERT_OK(WriteJsonlFile(spec, next));
        break;
      case FileFormat::kCsvGz:
        ASSERT_OK(WriteCsvGzTable(spec, next, /*block_bytes=*/2048));
        break;
      default:
        ASSERT_OK(WriteCsvFile(spec, next));
        break;
    }
    ASSERT_EQ(0, std::rename(next.c_str(), path.c_str()));
  }

  /// Registers `c`'s file as table "t" in a RawEngine or a Catalog.
  template <typename Target>
  Status Register(Target& target, const PinCase& c, const Schema& schema) {
    const std::string path = Path(c.file);
    switch (c.format) {
      case FileFormat::kBinary:
        return target.RegisterBinary("t", path, schema);
      case FileFormat::kJsonl:
        return target.RegisterJsonl("t", path, schema);
      case FileFormat::kCsvGz:
        return target.RegisterCsvGz("t", path, schema);
      default:
        return target.RegisterCsv("t", path, schema);
    }
  }

  /// Arms a one-shot EIO on the next open of `c`'s file.
  void ArmFailingReopen(const PinCase& c) {
    FaultSpec fault;
    std::string err;
    ASSERT_TRUE(FaultInjector::ParseSpec(
        std::string("eio:path=") + c.file + ",nth=1,max=1", &fault, &err))
        << err;
    FaultInjector::Global().Arm(fault);
  }

  static int64_t CountOf(const QueryResult& result) {
    auto count = result.ValueAt(0, 0);
    EXPECT_OK(count.status());
    return count.ok() ? count->int64_value() : -1;
  }
};

TEST_F(StalenessTest, PositionalMapBeyondEofIsATypedCorruptionError) {
  // A scan driven by a map whose offsets outlive the file must fail typed,
  // not read out of bounds (the exact state a mid-query truncation leaves).
  const std::string data = "11,22\n33,44\n";
  PositionalMap pmap = PositionalMap::TrackingColumns(2, {0});
  uint64_t pos0 = 0;
  pmap.AppendRow(0, &pos0);
  uint64_t pos1 = 6;
  pmap.AppendRow(6, &pos1);
  uint64_t beyond = 999;  // beyond the 12-byte file
  pmap.AppendRow(999, &beyond);

  ScanHealth health;
  CsvScanSpec spec;
  spec.file_schema = Schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
  spec.outputs = {0, 1};
  spec.use_pmap = &pmap;
  spec.anchor_column = 0;
  spec.health = &health;
  InsituCsvScanOperator op(data.data(), data.size(), spec);
  ASSERT_OK(op.Open());
  auto batch = op.Next();
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(StatusCode::kDataCorruption, batch.status().code());
  EXPECT_EQ(1, health.io_faults.load());
}

TEST_F(StalenessTest, TruncationUnderAWarmPmapIsDetectedNotCrashed) {
  TableSpec spec = TableSpec::UniformInt32("w", 6, 200, /*seed=*/9);
  const std::string path = Path("w.csv");
  ASSERT_OK(WriteCsvFile(spec, path));
  RawEngine engine;
  auto session = engine.OpenSession();
  ASSERT_OK(engine.RegisterCsv("t", path, spec.ToSchema()));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;

  const std::string sql = "SELECT MAX(col5) FROM t WHERE col1 < 900000000";
  ASSERT_OK(session->Query(sql, options).status());
  ASSERT_OK_AND_ASSIGN(auto pmap, engine.PositionalMapSnapshot("t"));
  ASSERT_NE(nullptr, pmap) << "warm-up query did not publish a map";

  // Cut the file mid-row: the stale map is dropped (version bump) and the
  // rebuilding scan hits the ragged tail — a typed error either way.
  ASSERT_OK_AND_ASSIGN(std::string contents, ReadFileToString(path));
  const size_t cut = contents.find('\n', contents.size() / 2) + 3;
  ASSERT_EQ(0, ::truncate(path.c_str(), static_cast<off_t>(cut)));

  auto result = session->Query(sql, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kParseError ||
              result.status().code() == StatusCode::kDataCorruption)
      << result.status().ToString();
  ASSERT_OK_AND_ASSIGN(auto stale, engine.PositionalMapSnapshot("t"));
  EXPECT_EQ(nullptr, stale) << "stale map survived the truncation";
}

TEST_F(StalenessTest, FlippedKeyByteUnderAnOrderedJsonlMapIsTypedOrCorrect) {
  // An ordered field-offset map lets a warm scan walk from a mapped value to
  // untracked ones, checking each key it passes. Flip one key byte of a row
  // under that map: a key the walk checks must become a typed error (the
  // row no longer has that key); any other key leaves the answer correct.
  // Never a value read under the wrong key.
  const TableSpec spec = TableSpec::UniformInt32("k", 12, 30, /*seed=*/11);
  const std::string path = Path("k.jsonl");
  ASSERT_OK(WriteJsonlFile(spec, path));
  ASSERT_OK_AND_ASSIGN(const std::string good, ReadFileToString(path));
  const Schema schema = spec.ToSchema();

  PositionalMap pmap = PositionalMap::WithStride(12, 10);  // col0, col10
  auto scan = [&](const std::string& bytes, const std::vector<int>& outputs,
                  PositionalMap* build) -> StatusOr<std::vector<std::string>> {
    JsonlScanSpec s;
    s.file_schema = schema;
    s.outputs = outputs;
    s.build_pmap = build;
    s.use_pmap = build == nullptr ? &pmap : nullptr;
    JsonlScanOperator op(bytes.data(), bytes.size(), std::move(s));
    RAW_RETURN_NOT_OK(op.Open());
    std::vector<std::string> values;
    while (true) {
      RAW_ASSIGN_OR_RETURN(ColumnBatch batch, op.Next());
      if (batch.end_of_stream()) break;
      for (int64_t r = 0; r < batch.num_rows(); ++r) {
        for (int c = 0; c < batch.num_columns(); ++c) {
          values.push_back(batch.column(c)->GetDatum(r).ToString());
        }
      }
    }
    return values;
  };
  ASSERT_OK(scan(good, {0}, &pmap).status());
  ASSERT_TRUE(pmap.keys_in_schema_order());

  // Outputs {6, 7, 10}: a walk from col0's value that checks the keys of
  // col1..col7, then a jump to col10's value.
  const std::vector<int> outputs = {6, 7, 10};
  ASSERT_OK_AND_ASSIGN(const std::vector<std::string> truth,
                       scan(good, outputs, nullptr));
  const size_t row_start = good.find('\n', good.find('\n') + 1) + 1;
  const size_t row_end = good.find('\n', row_start);
  int typed = 0;
  for (int c = 0; c < 12; ++c) {
    std::string key = "\"col";
    key += std::to_string(c);
    key += '"';
    const size_t at = good.find(key, row_start);
    ASSERT_LT(at, row_end) << key;
    const bool walked = c >= 1 && c <= 7;
    for (size_t i = 0; i < key.size(); ++i) {
      SCOPED_TRACE(key + " byte " + std::to_string(i));
      std::string bad = good;
      bad[at + i] = static_cast<char>(bad[at + i] ^ 0x01);
      auto got = scan(bad, outputs, nullptr);
      // col10's value is jumped to through the map: its key is checked
      // too, so a flipped byte fails as it does for a cold scan.
      if (c == 10) {
        EXPECT_FALSE(got.ok()) << "a jumped-to key was flipped";
      }
      if (!got.ok()) {
        EXPECT_TRUE(got.status().code() == StatusCode::kParseError ||
                    got.status().code() == StatusCode::kDataCorruption)
            << got.status().ToString();
        ++typed;
        continue;
      }
      EXPECT_FALSE(walked) << "a checked key was flipped, yet no error";
      EXPECT_EQ(*got, truth);
    }
  }
  EXPECT_GE(typed, 7 * 6);  // every byte of the checked keys "col1".."col7"
}

TEST_F(StalenessTest, PmapBuiltUnderAMutatedClaimIsDropped) {
  const std::string path = Path("c.csv");
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n"));
  const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
  Catalog catalog;
  ASSERT_OK(catalog.RegisterCsv("t", path, schema));
  ASSERT_OK_AND_ASSIGN(std::vector<FormatScanContext> pinned,
                       catalog.Pin({"t"}));
  TableEntry* entry = pinned[0].entry;
  const AdaptiveSlot slot = AdaptiveSlot::kPositionalMap;

  // A scan claims the build, the file changes mid-claim, the scan finishes:
  // the publication must be refused — the map indexes the old bytes.
  ASSERT_TRUE(entry->TryClaimBuild(slot, pinned[0].version));
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n5,6\n7,8\n"));
  ASSERT_TRUE(entry->CheckStale());
  const uint64_t positions[2] = {0, 2};
  auto stale_map =
      std::make_shared<PositionalMap>(PositionalMap::WithStride(2, 10));
  stale_map->AppendRow(0, positions);
  entry->PublishBuild(slot, pinned[0].version, stale_map);
  EXPECT_EQ(nullptr, entry->pmap()) << "stale-built map was published";

  // A claim over the current bytes publishes normally.
  ASSERT_OK_AND_ASSIGN(pinned, catalog.Pin({"t"}));
  ASSERT_TRUE(entry->TryClaimBuild(slot, pinned[0].version));
  auto fresh_map =
      std::make_shared<PositionalMap>(PositionalMap::WithStride(2, 10));
  fresh_map->AppendRow(0, positions);
  entry->PublishBuild(slot, pinned[0].version, fresh_map);
  EXPECT_NE(nullptr, entry->pmap());
}

TEST_F(StalenessTest, BlockIndexBuiltOverAReplacedCsvGzRecordsNoRowCount) {
  // A cold csv.gz scan claims the block-index build; the file is replaced
  // while the scan is still streaming. Neither the index nor the row count
  // it counted may be published for the new generation.
  const TableSpec v1 = TableSpec::UniformInt32("t", 3, 20000, /*seed=*/5);
  const TableSpec v2 = TableSpec::UniformInt32("t", 3, 700, /*seed=*/6);
  const std::string path = Path("idx.csv.gz");
  ASSERT_OK(WriteCsvGzTable(v1, path, /*block_bytes=*/4096));
  RawEngine engine;
  ASSERT_OK(engine.RegisterCsvGz("t", path, v1.ToSchema()));
  PlannerOptions options;
  options.num_threads = 1;
  // No shred caching: a full cached scan records the row count too.
  options.use_shred_cache = false;
  options.populate_shred_cache = false;
  auto session = engine.OpenSession(options);

  ASSERT_OK_AND_ASSIGN(Cursor cursor, session->Stream("SELECT col0 FROM t"));
  ASSERT_OK_AND_ASSIGN(ColumnBatch first, cursor.Next());
  ASSERT_GT(first.num_rows(), 0);
  ASSERT_FALSE(cursor.done()) << "the scan must still be building the index";

  const std::string next = path + ".next";
  ASSERT_OK(WriteCsvGzTable(v2, next, /*block_bytes=*/4096));
  ASSERT_EQ(0, std::rename(next.c_str(), path.c_str()));
  // The next query notices the replacement; it cannot claim the build the
  // streaming scan still holds, so it publishes nothing itself.
  ASSERT_OK_AND_ASSIGN(QueryResult fresh,
                       session->Query("SELECT COUNT(*) FROM t"));
  ASSERT_OK_AND_ASSIGN(Datum fresh_count, fresh.Scalar());
  EXPECT_EQ(700, fresh_count.int64_value());

  // Drain the first-generation scan: its index covers 20000 displaced rows.
  while (true) {
    ASSERT_OK_AND_ASSIGN(ColumnBatch batch, cursor.Next());
    if (batch.empty()) break;
  }
  ASSERT_OK(cursor.Close());
  const EngineStats stats = engine.Stats();
  const TableStats* table = stats.table("t");
  ASSERT_NE(nullptr, table);
  EXPECT_NE(20000, table->row_count) << "stale row count published";
  EXPECT_EQ(0, table->format_state_bytes) << "stale block index published";

  // The next cold scan builds and publishes over the current bytes.
  ASSERT_OK_AND_ASSIGN(QueryResult rebuilt,
                       session->Query("SELECT COUNT(*) FROM t"));
  ASSERT_OK_AND_ASSIGN(Datum rebuilt_count, rebuilt.Scalar());
  EXPECT_EQ(700, rebuilt_count.int64_value());
  const EngineStats after = engine.Stats();
  EXPECT_EQ(700, after.table("t")->row_count);
  EXPECT_GT(after.table("t")->format_state_bytes, 0);
}

TEST_F(StalenessTest, FailedReopenUnderAPinnedQueryIsTypedAndFreesTheOldFile) {
  // The interleaving that used to crash the serving tier: one query's lookup
  // has returned, another worker's lookup sees the file replaced and drops
  // the entry's handles, and the reopen fails. Planning must then get a
  // typed error (never a null handle), a query already in flight keeps the
  // generation it pinned, and that generation is freed with its last query.
  const TableSpec v1 = TableSpec::UniformInt32("t", 4, 200, /*seed=*/3);
  const TableSpec v2 = TableSpec::UniformInt32("t", 4, 300, /*seed=*/4);
  for (const PinCase& c : PinCases()) {
    SCOPED_TRACE(c.file);
    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, v1));
    Catalog catalog;
    ASSERT_OK(Register(catalog, c, v1.ToSchema()));
    ASSERT_OK_AND_ASSIGN(TableEntry * entry, catalog.Lookup("t"));

    FormatScanContext running;  // a query in flight on the first generation
    running.entry = entry;
    ASSERT_OK(entry->Pin(running));
    ASSERT_NE(nullptr, running.file);
    const size_t old_size = running.file->size();
    std::weak_ptr<const MmapFile> old_file = running.file;
    std::weak_ptr<const BinaryReader> old_reader = running.bin_reader;

    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, v2));
    ASSERT_TRUE(entry->CheckStale());  // another worker's lookup
    ASSERT_NO_FATAL_FAILURE(ArmFailingReopen(c));
    const int64_t fired_before = FaultInjector::Global().fired();
    FormatScanContext failed;
    failed.entry = entry;
    const Status pinned = entry->Pin(failed);
    EXPECT_EQ(StatusCode::kIOError, pinned.code()) << pinned.ToString();
    EXPECT_EQ(nullptr, failed.file);
    EXPECT_EQ(nullptr, failed.bin_reader);
    EXPECT_EQ(fired_before + 1, FaultInjector::Global().fired());

    // The in-flight query still reads its own bytes...
    ASSERT_FALSE(old_file.expired());
    EXPECT_EQ(old_size, running.file->size());
    // ...and the next query reopens (the one-shot fault is spent) and pins
    // the new generation.
    FormatScanContext next;
    next.entry = entry;
    ASSERT_OK(entry->Pin(next));
    ASSERT_NE(nullptr, next.file);
    EXPECT_GT(next.file->size(), old_size);
    EXPECT_EQ(running.version + 1, next.version);
    if (c.format == FileFormat::kBinary) {
      ASSERT_NE(nullptr, next.bin_reader);
      EXPECT_EQ(300, next.bin_reader->num_rows());
      EXPECT_EQ(next.file.get(), next.bin_reader->file())
          << "binary reader and JIT kernels must read one mapping";
    }

    // Nothing else retains the displaced generation: its mapping (and fd)
    // goes away with the last query that pinned it.
    running = FormatScanContext();
    EXPECT_TRUE(old_file.expired()) << "displaced mapping leaked";
    EXPECT_TRUE(old_reader.expired()) << "displaced binary reader leaked";
  }
}

TEST_F(StalenessTest, QueriesAcrossAFailedReopenAreTypedOrCorrect) {
  // End to end through sessions: a planned (streaming) query survives the
  // file being replaced and the reopen failing underneath it, the query
  // that hits the failed reopen gets a typed error, and the next query
  // answers from the new file.
  const TableSpec v1 = TableSpec::UniformInt32("t", 4, 200, /*seed=*/3);
  const TableSpec v2 = TableSpec::UniformInt32("t", 4, 300, /*seed=*/4);
  const std::string sql = "SELECT COUNT(*), MAX(col1) FROM t";
  for (const PinCase& c : PinCases()) {
    SCOPED_TRACE(c.file);
    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, v1));
    RawEngine engine;
    ASSERT_OK(Register(engine, c, v1.ToSchema()));
    auto session = engine.OpenSession();

    ASSERT_OK_AND_ASSIGN(Cursor cursor, session->Stream(sql));
    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, v2));
    ASSERT_NO_FATAL_FAILURE(ArmFailingReopen(c));
    auto failed = session->Query(sql);
    ASSERT_FALSE(failed.ok()) << "the failed reopen was swallowed";
    EXPECT_EQ(StatusCode::kIOError, failed.status().code())
        << failed.status().ToString();

    ASSERT_OK_AND_ASSIGN(QueryResult streamed, cursor.Consume());
    EXPECT_EQ(200, CountOf(streamed)) << "the planned query lost its file";
    ASSERT_OK(cursor.Close());

    ASSERT_OK_AND_ASSIGN(QueryResult fresh, session->Query(sql));
    EXPECT_EQ(300, CountOf(fresh));
  }
}

TEST_F(StalenessTest, CursorClosedAfterAReplacementPublishesNoOldShreds) {
  // A streaming cursor planned over the old file generation drains after a
  // replacement was detected (and the table's shreds purged) by another
  // query. Its shreds and row count describe the old bytes: closing it must
  // publish neither, or the next query answers from the old file. Plans are
  // forced interpreted (kOff, in-situ) so they read and populate shreds
  // whatever the JIT compiler's state.
  const TableSpec v1 = TableSpec::UniformInt32("t", 4, 200, /*seed=*/5);
  const TableSpec v2 = TableSpec::UniformInt32("t", 4, 300, /*seed=*/6);
  const std::string sql = "SELECT MAX(col1), COUNT(*) FROM t WHERE col0 > 0";
  PlannerOptions options;
  options.jit_fusion = JitFusion::kOff;
  options.access_path = AccessPathKind::kInSitu;
  options.num_threads = 1;
  for (const PinCase& c : PinCases()) {
    SCOPED_TRACE(c.file);
    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, v2));
    QueryResult expected;
    {
      RawEngine fresh;
      auto fresh_session = fresh.OpenSession();
      ASSERT_OK(Register(fresh, c, v2.ToSchema()));
      ASSERT_OK_AND_ASSIGN(expected, fresh_session->Query(sql, options));
    }
    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, v1));
    RawEngine engine;
    ASSERT_OK(Register(engine, c, v1.ToSchema()));
    auto session = engine.OpenSession(options);

    ASSERT_OK_AND_ASSIGN(Cursor cursor, session->Stream(sql));
    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, v2));
    // One other query sees the change and purges the table's shreds.
    ASSERT_OK(session->Query("SELECT COUNT(*) FROM t").status());
    ASSERT_OK(cursor.Consume().status());
    ASSERT_OK(cursor.Close());

    ASSERT_OK_AND_ASSIGN(QueryResult next, session->Query(sql));
    EXPECT_EQ(next.table.column(0)->GetDatum(0).ToString(),
              expected.table.column(0)->GetDatum(0).ToString())
        << next.plan_description;
    EXPECT_EQ(next.table.column(1)->GetDatum(0).ToString(),
              expected.table.column(1)->GetDatum(0).ToString());
    const EngineStats stats = engine.Stats();
    ASSERT_NE(stats.table("t"), nullptr);
    EXPECT_GE(stats.table("t")->stale_publishes, 1);
    EXPECT_EQ(stats.table("t")->row_count, 300);
  }
}

TEST_F(StalenessTest, ChurnWithFailingReopensIsTypedOrCorrectUnderLoad) {
  // The serving-tier fault loop in miniature (and a TSan target for the
  // handle snapshot): sessions query while the file's mtime churns, every
  // lookup reopens it, and a sample of the reopens fails. Each answer is
  // either correct or a typed kIOError, whatever the interleaving.
  const TableSpec spec = TableSpec::UniformInt32("t", 4, 200, /*seed=*/3);
  const std::string sql = "SELECT COUNT(*), MAX(col1) FROM t";
  for (const PinCase& c : PinCases()) {
    SCOPED_TRACE(c.file);
    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, spec));
    RawEngine engine;
    ASSERT_OK(Register(engine, c, spec.ToSchema()));
    FaultSpec fault;
    std::string err;
    ASSERT_TRUE(FaultInjector::ParseSpec(
        std::string("eio:path=") + c.file + ",sample=0.2,seed=5", &fault,
        &err))
        << err;
    FaultInjector::Global().Arm(fault);

    constexpr int kSessions = 3;
    constexpr int kQueriesPerSession = 30;
    std::atomic<bool> stop{false};
    std::thread toucher([&] {
      const std::string path = Path(c.file);
      while (!stop.load(std::memory_order_relaxed)) {
        ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    std::vector<std::vector<StatusOr<QueryResult>>> results(kSessions);
    std::vector<std::thread> sessions;
    for (int s = 0; s < kSessions; ++s) {
      sessions.emplace_back([&, s] {
        auto session = engine.OpenSession();
        for (int q = 0; q < kQueriesPerSession; ++q) {
          results[static_cast<size_t>(s)].push_back(session->Query(sql));
        }
      });
    }
    for (std::thread& t : sessions) t.join();
    stop.store(true, std::memory_order_relaxed);
    toucher.join();
    FaultInjector::Global().Disarm();

    for (const auto& per_session : results) {
      for (const StatusOr<QueryResult>& r : per_session) {
        if (r.ok()) {
          EXPECT_EQ(200, CountOf(*r));
        } else {
          EXPECT_EQ(StatusCode::kIOError, r.status().code())
              << r.status().ToString();
        }
      }
    }
  }
}

TEST_F(StalenessTest, RenamedGenerationsUnderConcurrentSessionsAnswerFromOne) {
  // Sessions query through the result cache while another thread renames
  // alternating file generations (different row counts and seeds) over the
  // table. Every answer must be one generation's answer, never a mix, and
  // once the renames stop the next query answers from the last generation.
  const std::vector<TableSpec> generations = {
      TableSpec::UniformInt32("t", 4, 200, /*seed=*/11),
      TableSpec::UniformInt32("t", 4, 260, /*seed=*/12)};
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*), MAX(col1) FROM t WHERE col0 > 300000000",
      "SELECT MIN(col2), SUM(col3) FROM t WHERE col1 < 700000000"};
  auto answer = [](const QueryResult& r) {
    std::string out;
    for (int c = 0; c < r.num_columns(); ++c) {
      out += r.table.column(c)->GetDatum(0).ToString() + ";";
    }
    return out;
  };
  constexpr int kSessions = 3;
  constexpr int kQueriesPerSession = 24;
  constexpr int kRenames = 16;
  for (const PinCase& c : PinCases()) {
    SCOPED_TRACE(c.file);
    // Oracle answers per generation, from a fresh engine each.
    std::vector<std::vector<std::string>> oracle(generations.size());
    for (size_t g = 0; g < generations.size(); ++g) {
      ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, generations[g]));
      RawEngine fresh;
      auto fresh_session = fresh.OpenSession();
      ASSERT_OK(Register(fresh, c, generations[g].ToSchema()));
      for (const std::string& sql : sqls) {
        ASSERT_OK_AND_ASSIGN(QueryResult r, fresh_session->Query(sql));
        oracle[g].push_back(answer(r));
      }
    }
    ASSERT_NE(oracle[0], oracle[1]);
    ASSERT_NO_FATAL_FAILURE(ReplaceTable(c, generations[0]));
    RawEngineOptions options;
    options.result_cache_bytes = 1 << 20;
    RawEngine engine(options);
    ASSERT_OK(Register(engine, c, generations[0].ToSchema()));

    std::thread renamer([&] {
      for (int i = 1; i <= kRenames; ++i) {
        ReplaceTable(c, generations[static_cast<size_t>(i) % 2]);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    std::vector<std::vector<StatusOr<QueryResult>>> results(kSessions);
    std::vector<std::thread> sessions;
    for (int s = 0; s < kSessions; ++s) {
      sessions.emplace_back([&, s] {
        auto session = engine.OpenSession();
        for (int q = 0; q < kQueriesPerSession; ++q) {
          results[static_cast<size_t>(s)].push_back(
              session->Query(sqls[static_cast<size_t>(q) % sqls.size()]));
        }
      });
    }
    for (std::thread& t : sessions) t.join();
    renamer.join();

    for (const auto& per_session : results) {
      for (size_t q = 0; q < per_session.size(); ++q) {
        ASSERT_OK(per_session[q].status());
        const std::string got = answer(*per_session[q]);
        const size_t which = q % sqls.size();
        EXPECT_TRUE(got == oracle[0][which] || got == oracle[1][which])
            << sqls[which] << " answered " << got << ", generations "
            << oracle[0][which] << " / " << oracle[1][which];
      }
    }
    const size_t last = static_cast<size_t>(kRenames) % 2;
    auto session = engine.OpenSession();
    for (size_t i = 0; i < sqls.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(QueryResult r, session->Query(sqls[i]));
      EXPECT_EQ(answer(r), oracle[last][i]) << sqls[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Serving tier: typed errors over the wire, client retry/reconnect
// ---------------------------------------------------------------------------

TEST(WireRobustnessTest, AssemblerReportsAPartialFrame) {
  serve::PayloadWriter w;
  w.PutString("partial");
  std::vector<uint8_t> encoded = serve::EncodeFrame(
      serve::MessageType::kQuery, w.bytes());
  serve::FrameAssembler assembler;
  EXPECT_FALSE(assembler.has_partial_frame());
  ASSERT_OK(assembler.Feed(encoded.data(), encoded.size() - 3));
  EXPECT_TRUE(assembler.has_partial_frame());
  ASSERT_OK(assembler.Feed(encoded.data() + encoded.size() - 3, 3));
  serve::Frame frame;
  ASSERT_TRUE(assembler.Pop(&frame));
  EXPECT_FALSE(assembler.has_partial_frame());
}

class ServeFaultTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
    const std::string path = Path("srv.csv");
    std::string text;
    for (int i = 0; i < 500; ++i) {
      text += std::to_string(i) + "," + std::to_string(i % 13) + "\n";
    }
    ASSERT_OK(WriteStringToFile(path, text));
    const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
    ASSERT_OK(engine_.RegisterCsv("srv", path, schema));
    server_ = std::make_unique<serve::RawServer>(&engine_,
                                                 serve::ServerOptions());
    ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    FaultInjector::Global().Disarm();
    if (server_ != nullptr) server_->Shutdown();
  }

  RawEngine engine_;
  std::unique_ptr<serve::RawServer> server_;
};

TEST_F(ServeFaultTest, ScanFaultsBecomeTypedErrorFramesNotDrops) {
  // An injected open fault fails the query with a typed error frame; the
  // connection survives and the next query (fault disarmed) succeeds.
  FaultSpec spec;
  spec.kind = FaultKind::kEio;
  spec.path_substr = "srv.csv";
  FaultInjector::Global().Arm(spec);

  ASSERT_OK_AND_ASSIGN(auto client,
                       serve::RawClient::Connect("127.0.0.1",
                                                 server_->port()));
  ASSERT_OK(client->Hello());
  ASSERT_OK_AND_ASSIGN(serve::QueryResponse resp,
                       client->Query("SELECT SUM(b) FROM srv WHERE a < 400"));
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(StatusCode::kIOError, resp.status.code()) << resp.status.ToString();

  FaultInjector::Global().Disarm();
  ASSERT_OK_AND_ASSIGN(serve::QueryResponse again,
                       client->Query("SELECT COUNT(*) FROM srv WHERE a < 400"));
  ASSERT_OK(again.status);
  ASSERT_OK(client->Goodbye());
}

TEST_F(ServeFaultTest, QueryRetriesTransparentlyAcrossAKilledConnection) {
  serve::RawClientOptions options;
  options.max_retries = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  ASSERT_OK_AND_ASSIGN(
      auto client,
      serve::RawClient::Connect("127.0.0.1", server_->port(), options));
  ASSERT_OK(client->Hello());
  ASSERT_OK_AND_ASSIGN(serve::QueryResponse first,
                       client->Query("SELECT COUNT(*) FROM srv WHERE a < 100"));
  ASSERT_OK(first.status);

  // Kill the transport under the client; the next Query must reconnect
  // (replaying Hello) and answer as if nothing happened.
  client->Close();
  ASSERT_OK_AND_ASSIGN(serve::QueryResponse second,
                       client->Query("SELECT COUNT(*) FROM srv WHERE a < 100"));
  ASSERT_OK(second.status);
  EXPECT_EQ(1, client->reconnects());
  EXPECT_EQ(1, client->retries());
  ASSERT_OK(client->Goodbye());
}

TEST_F(ServeFaultTest, CorruptFrameGetsATypedProtocolErrorBeforeTheClose) {
  // Hand-rolled socket: Hello, then a frame header promising an absurd
  // payload. The server must answer with a typed PROTOCOL_ERROR frame
  // before dropping the connection (not just vanish).
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)));

  serve::PayloadWriter hello;
  hello.PutU8(0);  // interactive
  std::vector<uint8_t> bytes =
      serve::EncodeFrame(serve::MessageType::kHello, hello.bytes());
  ASSERT_EQ(static_cast<ssize_t>(bytes.size()),
            ::send(fd, bytes.data(), bytes.size(), 0));

  // type byte + little-endian u32 length far beyond kMaxPayloadBytes.
  const uint8_t corrupt[5] = {2, 0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(static_cast<ssize_t>(sizeof(corrupt)),
            ::send(fd, corrupt, sizeof(corrupt), 0));

  serve::FrameAssembler assembler;
  bool got_error = false;
  bool closed = false;
  uint8_t buf[512];
  for (int i = 0; i < 200 && !closed; ++i) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
    ASSERT_OK(assembler.Feed(buf, static_cast<size_t>(n)));
    serve::Frame frame;
    while (assembler.Pop(&frame)) {
      if (frame.type == serve::MessageType::kHelloOk) continue;
      ASSERT_EQ(serve::MessageType::kError, frame.type);
      serve::PayloadReader reader(frame.payload);
      ASSERT_OK(reader.U64().status());  // request id (0: no request)
      ASSERT_OK_AND_ASSIGN(uint32_t code, reader.U32());
      EXPECT_EQ(static_cast<uint32_t>(StatusCode::kProtocolError), code);
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error) << "connection dropped without a typed error";
  EXPECT_TRUE(closed) << "server kept a corrupt-frame peer alive";
  ::close(fd);
}

}  // namespace
}  // namespace raw
