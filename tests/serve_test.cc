// rawd serving-tier tests: wire protocol round trips, the admission
// controller's quota/shedding/priority/deadline semantics (deterministically,
// with jobs the test blocks and releases), and the full network path —
// concurrent clients against in-process ground truth, typed overload sheds,
// session release on abrupt disconnect, and graceful drain; and the rawd
// binary itself (--port=0 binds an ephemeral port and prints it).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "csv/csv_writer.h"
#include "engine/raw_engine.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace raw {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(WireTest, PayloadRoundTrip) {
  PayloadWriter w;
  w.PutU8(7);
  w.PutU32(123456789u);
  w.PutU64(0xdeadbeefcafeull);
  w.PutF64(3.5);
  w.PutString("hello");
  PayloadReader r(w.bytes());
  EXPECT_EQ(7, *r.U8());
  EXPECT_EQ(123456789u, *r.U32());
  EXPECT_EQ(0xdeadbeefcafeull, *r.U64());
  EXPECT_EQ(3.5, *r.F64());
  EXPECT_EQ("hello", *r.String());
  EXPECT_EQ(0u, r.remaining());
}

TEST(WireTest, ReaderRejectsTruncation) {
  PayloadWriter w;
  w.PutU32(100);  // string length prefix promising 100 bytes
  PayloadReader r(w.bytes());
  EXPECT_FALSE(r.String().ok());
  uint8_t two[] = {1, 2};
  PayloadReader r2(two, sizeof(two));
  EXPECT_FALSE(r2.U32().ok());
}

TEST(WireTest, FrameAssemblerReassemblesByteByByte) {
  PayloadWriter w;
  w.PutString("fragmented");
  std::vector<uint8_t> encoded = EncodeFrame(MessageType::kQuery, w.bytes());

  FrameAssembler assembler;
  Frame frame;
  for (size_t i = 0; i < encoded.size(); ++i) {
    EXPECT_FALSE(assembler.Pop(&frame));
    ASSERT_TRUE(assembler.Feed(&encoded[i], 1).ok());
  }
  ASSERT_TRUE(assembler.Pop(&frame));
  EXPECT_EQ(MessageType::kQuery, frame.type);
  PayloadReader r(frame.payload);
  EXPECT_EQ("fragmented", *r.String());
  EXPECT_FALSE(assembler.Pop(&frame));
}

TEST(WireTest, FrameAssemblerPopsPipelinedFrames) {
  std::vector<uint8_t> bytes;
  for (int i = 0; i < 3; ++i) {
    PayloadWriter w;
    w.PutU64(static_cast<uint64_t>(i));
    std::vector<uint8_t> f = EncodeFrame(MessageType::kQuery, w.bytes());
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(bytes.data(), bytes.size()).ok());
  Frame frame;
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(assembler.Pop(&frame));
    PayloadReader r(frame.payload);
    EXPECT_EQ(i, *r.U64());
  }
  EXPECT_FALSE(assembler.Pop(&frame));
}

TEST(WireTest, FrameAssemblerRejectsOversizedFrame) {
  uint32_t len = kMaxPayloadBytes + 1;
  uint8_t header[5];
  std::memcpy(header, &len, 4);
  header[4] = static_cast<uint8_t>(MessageType::kQuery);
  FrameAssembler assembler;
  EXPECT_FALSE(assembler.Feed(header, sizeof(header)).ok());
}

TEST(WireTest, TableRoundTripPreservesData) {
  RawEngine engine;
  auto session = engine.OpenSession();
  auto dir = TempDir::Create("serve_wire_");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->FilePath("t.csv");
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    for (int i = 0; i < 50; ++i) {
      writer.AppendInt32(i);
      writer.AppendString(i % 2 ? "odd" : "even");
      writer.AppendFloat64(i * 1.25);
      writer.EndRow();
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  Schema schema{{"id", DataType::kInt32},
                {"parity", DataType::kString},
                {"v", DataType::kFloat64}};
  ASSERT_TRUE(engine.RegisterCsv("t", path, schema).ok());
  auto result = session->Query("SELECT id, parity, v FROM t WHERE id < 10");
  ASSERT_TRUE(result.ok());

  PayloadWriter w;
  SerializeTable(result->table, &w);
  PayloadReader r(w.bytes());
  auto round = DeserializeTable(&r);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(result->table.ToString(), round->ToString());
  EXPECT_EQ(0u, r.remaining());
}

// ---------------------------------------------------------------------------
// Admission controller (deterministic: jobs block on test-held latches)
// ---------------------------------------------------------------------------

/// A job whose completion the test controls.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return released; });
  }
};

AdmissionOptions TinyOptions() {
  AdmissionOptions opts;
  opts.interactive = ClassLimits{/*max_concurrent=*/1, /*max_queued=*/1,
                                 /*max_queued_bytes=*/1 << 20};
  opts.batch = ClassLimits{/*max_concurrent=*/1, /*max_queued=*/1,
                           /*max_queued_bytes=*/1 << 20};
  opts.num_workers = 2;
  opts.max_total_queued = 8;
  return opts;
}

TEST(AdmissionTest, ShedsWhenClassQueueFull) {
  AdmissionCounters counters;
  AdmissionController ac(TinyOptions(), &counters);
  Latch latch;
  std::promise<void> running;
  // Occupy the single interactive slot.
  ASSERT_TRUE(ac.Submit(PriorityClass::kInteractive, 1, Deadline(),
                        [&](const Status& s) {
                          ASSERT_TRUE(s.ok());
                          running.set_value();
                          latch.Wait();
                        })
                  .ok());
  running.get_future().wait();
  // Fill the queue (max_queued = 1).
  ASSERT_TRUE(ac.Submit(PriorityClass::kInteractive, 1, Deadline(),
                        [](const Status&) {})
                  .ok());
  // Third submission must shed with a typed OVERLOADED error.
  Status shed = ac.Submit(PriorityClass::kInteractive, 1, Deadline(),
                          [](const Status&) { FAIL() << "shed job ran"; });
  EXPECT_EQ(StatusCode::kResourceExhausted, shed.code());
  EXPECT_NE(std::string::npos, std::string(shed.message()).find("OVERLOADED"));
  EXPECT_EQ(1, counters.shed.load());
  latch.Release();
  ac.Drain();
  EXPECT_EQ(2, counters.executed.load());
}

TEST(AdmissionTest, ShedsWhenByteQuotaExceeded) {
  AdmissionOptions opts = TinyOptions();
  opts.interactive.max_queued = 100;
  opts.interactive.max_queued_bytes = 10;
  AdmissionCounters counters;
  AdmissionController ac(opts, &counters);
  Latch latch;
  std::promise<void> running;
  ASSERT_TRUE(ac.Submit(PriorityClass::kInteractive, 0, Deadline(),
                        [&](const Status&) {
                          running.set_value();
                          latch.Wait();
                        })
                  .ok());
  running.get_future().wait();
  ASSERT_TRUE(ac.Submit(PriorityClass::kInteractive, 8, Deadline(),
                        [](const Status&) {})
                  .ok());
  Status shed = ac.Submit(PriorityClass::kInteractive, 8, Deadline(),
                          [](const Status&) { FAIL() << "shed job ran"; });
  EXPECT_EQ(StatusCode::kResourceExhausted, shed.code());
  EXPECT_EQ(1, counters.shed.load());
  latch.Release();
  ac.Drain();
}

TEST(AdmissionTest, InteractiveDequeuesBeforeBatch) {
  AdmissionOptions opts = TinyOptions();
  opts.num_workers = 1;  // single worker => strict dequeue order observable
  opts.interactive.max_queued = 8;
  opts.batch.max_queued = 8;
  AdmissionController ac(opts, nullptr);
  Latch latch;
  std::promise<void> running;
  ASSERT_TRUE(ac.Submit(PriorityClass::kBatch, 1, Deadline(),
                        [&](const Status&) {
                          running.set_value();
                          latch.Wait();
                        })
                  .ok());
  running.get_future().wait();
  // Queue a batch request first, then an interactive one.
  std::mutex order_mu;
  std::vector<int> order;
  ASSERT_TRUE(ac.Submit(PriorityClass::kBatch, 1, Deadline(),
                        [&](const Status&) {
                          std::lock_guard<std::mutex> lock(order_mu);
                          order.push_back(1);
                        })
                  .ok());
  ASSERT_TRUE(ac.Submit(PriorityClass::kInteractive, 1, Deadline(),
                        [&](const Status&) {
                          std::lock_guard<std::mutex> lock(order_mu);
                          order.push_back(0);
                        })
                  .ok());
  latch.Release();
  ac.Drain();
  ASSERT_EQ(2u, order.size());
  EXPECT_EQ(0, order[0]) << "interactive must dequeue before batch";
  EXPECT_EQ(1, order[1]);
}

TEST(AdmissionTest, QueuedDeadlineExpiryFailsWithoutRunning) {
  AdmissionCounters counters;
  AdmissionController ac(TinyOptions(), &counters);
  Latch latch;
  std::promise<void> running;
  ASSERT_TRUE(ac.Submit(PriorityClass::kInteractive, 1, Deadline(),
                        [&](const Status&) {
                          running.set_value();
                          latch.Wait();
                        })
                  .ok());
  running.get_future().wait();
  // Queued behind the blocked slot with a deadline that lapses immediately.
  std::promise<Status> verdict;
  ASSERT_TRUE(ac.Submit(PriorityClass::kInteractive, 1,
                        Deadline::AfterMillis(1),
                        [&](const Status& s) { verdict.set_value(s); })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  latch.Release();
  Status s = verdict.get_future().get();
  EXPECT_EQ(StatusCode::kResourceExhausted, s.code());
  ac.Drain();
  EXPECT_EQ(1, counters.deadline_expired.load());
  EXPECT_EQ(1, counters.executed.load());
}

TEST(AdmissionTest, DrainRejectsNewWorkAndFinishesAdmitted) {
  AdmissionOptions opts = TinyOptions();
  opts.interactive.max_queued = 8;  // both jobs may sit queued briefly
  AdmissionCounters counters;
  AdmissionController ac(opts, &counters);
  std::atomic<int> ran{0};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(ac.Submit(PriorityClass::kInteractive, 1, Deadline(),
                          [&](const Status& s) {
                            if (s.ok()) ran.fetch_add(1);
                          })
                    .ok());
  }
  ac.BeginDrain();
  Status rejected = ac.Submit(PriorityClass::kInteractive, 1, Deadline(),
                              [](const Status&) { FAIL() << "ran"; });
  EXPECT_EQ(StatusCode::kInvalidArgument, rejected.code());
  ac.Drain();
  EXPECT_EQ(2, ran.load());
  EXPECT_EQ(0, ac.queued());
  EXPECT_EQ(0, ac.running());
}

// ---------------------------------------------------------------------------
// End-to-end server tests
// ---------------------------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("serve_test_");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    const std::string path = dir_->FilePath("readings.csv");
    {
      CsvWriter writer(path);
      ASSERT_TRUE(writer.Open().ok());
      static const char* kGroups[] = {"alpha", "beta", "gamma", "delta"};
      for (int i = 0; i < 1000; ++i) {
        writer.AppendInt32(i);
        writer.AppendString(kGroups[i % 4]);
        writer.AppendFloat64((i % 97) * 0.5);
        writer.EndRow();
      }
      ASSERT_TRUE(writer.Close().ok());
    }
    Schema schema{{"id", DataType::kInt32},
                  {"grp", DataType::kString},
                  {"value", DataType::kFloat64}};
    ASSERT_TRUE(engine_.RegisterCsv("readings", path, schema).ok());
  }

  std::unique_ptr<RawServer> StartServer(ServerOptions options = {}) {
    auto server = std::make_unique<RawServer>(&engine_, options);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  std::unique_ptr<RawClient> Connect(const RawServer& server,
                                     PriorityClass priority =
                                         PriorityClass::kInteractive) {
    auto client = RawClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok());
    EXPECT_TRUE((*client)->Hello(priority).ok());
    return std::move(*client);
  }

  std::unique_ptr<TempDir> dir_;
  RawEngine engine_;
};

TEST_F(ServeTest, QueryMatchesInProcessGroundTruth) {
  auto server = StartServer();
  auto client = Connect(*server);
  const char* queries[] = {
      "SELECT COUNT(*) FROM readings",
      "SELECT MAX(value), MIN(value) FROM readings WHERE id > 100",
      "SELECT grp, COUNT(*) FROM readings GROUP BY grp",
      "SELECT id, value FROM readings WHERE value > 40.0 LIMIT 7",
  };
  auto session = engine_.OpenSession();
  for (const char* sql : queries) {
    auto truth = session->Query(sql);
    ASSERT_TRUE(truth.ok()) << sql;
    auto resp = client->Query(sql);
    ASSERT_TRUE(resp.ok()) << sql;
    ASSERT_TRUE(resp->status.ok()) << sql << ": " << resp->status.ToString();
    EXPECT_EQ(truth->table.ToString(), resp->table.ToString()) << sql;
  }
  EXPECT_TRUE(client->Goodbye().ok());
}

TEST_F(ServeTest, QueryErrorsAreReturnedTyped) {
  auto server = StartServer();
  auto client = Connect(*server);
  auto resp = client->Query("SELECT nope FROM nowhere");
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->status.ok());
  EXPECT_FALSE(resp->overloaded);
  EXPECT_TRUE(client->Goodbye().ok());
}

TEST_F(ServeTest, ConcurrentClientsMatchGroundTruth) {
  auto server = StartServer();
  auto session = engine_.OpenSession();
  auto truth = session->Query("SELECT grp, COUNT(*) FROM readings GROUP BY grp");
  ASSERT_TRUE(truth.ok());
  const std::string expected = truth->table.ToString();

  constexpr int kClients = 4;
  constexpr int kQueriesEach = 5;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = RawClient::Connect("127.0.0.1", server->port());
      if (!client.ok() || !(*client)->Hello().ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        auto resp =
            (*client)->Query("SELECT grp, COUNT(*) FROM readings GROUP BY grp");
        if (!resp.ok() || !resp->status.ok() ||
            resp->table.ToString() != expected) {
          failures.fetch_add(1);
        }
      }
      (*client)->Goodbye();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(0, failures.load());
}

TEST_F(ServeTest, OverQuotaRequestsShedTyped) {
  // max_total_queued = 0: every submission sheds deterministically, so the
  // typed kOverloaded path is exercised without timing races.
  ServerOptions options;
  options.admission.max_total_queued = 0;
  auto server = StartServer(options);
  auto client = Connect(*server);
  auto resp = client->Query("SELECT COUNT(*) FROM readings");
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->overloaded);
  EXPECT_EQ(StatusCode::kResourceExhausted, resp->status.code());
  EXPECT_NE(std::string::npos, resp->overload_reason.find("OVERLOADED"));
  EXPECT_GE(engine_.Stats().admission.shed, 1);
  EXPECT_TRUE(client->Goodbye().ok());
}

TEST_F(ServeTest, PipelinedQueriesAllAnswered) {
  auto server = StartServer();
  auto client = Connect(*server);
  constexpr int kPipelined = 8;
  for (uint64_t id = 1; id <= kPipelined; ++id) {
    ASSERT_TRUE(
        client->SendQuery(id, "SELECT COUNT(*) FROM readings WHERE id >= " +
                                  std::to_string(id))
            .ok());
  }
  std::vector<bool> seen(kPipelined + 1, false);
  for (int i = 0; i < kPipelined; ++i) {
    auto resp = client->ReadResponse();
    ASSERT_TRUE(resp.ok());
    ASSERT_GE(resp->request_id, 1u);
    ASSERT_LE(resp->request_id, static_cast<uint64_t>(kPipelined));
    EXPECT_FALSE(seen[resp->request_id]) << "duplicate response";
    seen[resp->request_id] = true;
    // Under default quotas some pipelined queries may shed; each must be
    // either a result or a typed overload, never silently dropped.
    if (!resp->overloaded) {
      EXPECT_TRUE(resp->status.ok()) << resp->status.ToString();
    }
  }
  EXPECT_TRUE(client->Goodbye().ok());
}

TEST_F(ServeTest, AbruptDisconnectReleasesSession) {
  auto server = StartServer();
  const int64_t before = engine_.Stats().sessions_active();
  {
    auto client = Connect(*server);
    auto resp = client->Query("SELECT COUNT(*) FROM readings");
    ASSERT_TRUE(resp.ok());
    EXPECT_GT(engine_.Stats().sessions_active(), before);
    client->Close();  // no goodbye
  }
  // The event loop notices the dead peer and drops the connection (and with
  // it the session). Poll briefly; the loop wakes at least every 100 ms.
  for (int i = 0; i < 100; ++i) {
    if (engine_.Stats().sessions_active() <= before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(engine_.Stats().sessions_active(), before);
}

TEST_F(ServeTest, GracefulDrainCompletesInFlight) {
  auto server = StartServer();
  auto client = Connect(*server);
  constexpr int kInFlight = 4;
  for (uint64_t id = 1; id <= kInFlight; ++id) {
    ASSERT_TRUE(client->SendQuery(id, "SELECT COUNT(*) FROM readings").ok());
  }
  // Admission happens on the event-loop thread, asynchronously to the socket
  // writes above. Wait until at least one query is genuinely in flight before
  // draining — otherwise drain can win the race and reject everything at
  // Submit, leaving nothing for the drain to complete. `admitted` increments
  // synchronously inside Submit, so it cannot over-report.
  for (int i = 0; i < 2500 && engine_.Stats().admission.admitted < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(engine_.Stats().admission.admitted, 1);
  server->RequestDrain();
  // Every admitted query still completes and its response is flushed before
  // the server closes the connection.
  int answered = 0;
  for (int i = 0; i < kInFlight; ++i) {
    auto resp = client->ReadResponse();
    if (!resp.ok()) break;  // connection closed after flush
    ++answered;
    if (!resp->overloaded) {
      EXPECT_TRUE(resp->status.ok() ||
                  resp->status.code() == StatusCode::kInvalidArgument)
          << resp->status.ToString();
    }
  }
  // At least the first query was admitted before drain began.
  EXPECT_GE(answered, 1);
  server->Shutdown();
  EXPECT_GE(engine_.Stats().admission.executed, 1);
}

TEST_F(ServeTest, ShutdownIsIdempotent) {
  auto server = StartServer();
  server->Shutdown();
  server->Shutdown();
  EXPECT_FALSE(server->running());
}

// ---------------------------------------------------------------------------
// STATS introspection over the wire
// ---------------------------------------------------------------------------

TEST_F(ServeTest, StatsRoundTrip) {
  auto server = StartServer();
  auto client = Connect(*server);

  // Run a couple of queries so the counters being reported are non-trivial.
  ASSERT_TRUE(client->Query("SELECT COUNT(*) FROM readings").ok());
  ASSERT_TRUE(
      client->Query("SELECT MAX(value) FROM readings WHERE id > 10").ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string& json = *stats;

  // Structural sanity: one JSON object, balanced braces/brackets.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // Every introspection section is present, including the autotune tier.
  for (const char* key :
       {"\"shred_cache\"", "\"result_cache\"", "\"materializer\"",
        "\"jit_cache\"", "\"admission\"", "\"queries_executed\"",
        "\"tables\"", "\"readings\"", "\"scans\"", "\"column_accesses\"",
        // JIT observability: compile counters inside jit_cache (background
        // compiler included), plus the planner's fused / interpreted /
        // deferred-while-compiling split.
        "\"compiles\"", "\"compile_seconds\"", "\"compiler_available\"",
        "\"pending\"", "\"background_compiles\"", "\"failed\"",
        "\"planner\"", "\"plans_fused\"", "\"plans_interpreted\"",
        "\"plans_jit_deferred\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing\n"
                                                 << json;
  }
  // The two materializing queries above each produced exactly one plan, so
  // the fused + interpreted split accounts for both.
  {
    EngineStats engine_stats = engine_.Stats();
    EXPECT_GE(engine_stats.plans_fused + engine_stats.plans_interpreted, 2);
  }
  // The queries above went through admission and were counted. (`admitted`
  // increments at submit, strictly before the response reaches us; the
  // worker's `executed` bookkeeping may still be a beat behind.)
  EXPECT_NE(json.find("\"admitted\":2"), std::string::npos) << json;

  // The connection still works for queries after a STATS exchange.
  auto resp = client->Query("SELECT COUNT(*) FROM readings");
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->status.ok());
  EXPECT_TRUE(client->Goodbye().ok());
}

// ---------------------------------------------------------------------------
// Query deadlines (engine-level; the serving tier plumbs these through)
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ExpiredDeadlineFailsQuery) {
  auto session = engine_.OpenSession();
  PlannerOptions options = session->planner_options();
  options.deadline = Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto result = session->Query("SELECT COUNT(*) FROM readings", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kResourceExhausted, result.status().code());
}

TEST_F(ServeTest, InfiniteDeadlineSucceeds) {
  auto session = engine_.OpenSession();
  PlannerOptions options = session->planner_options();
  options.deadline = Deadline::AfterMillis(60 * 1000);
  auto result = session->Query("SELECT COUNT(*) FROM readings", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// ---------------------------------------------------------------------------
// The rawd binary
// ---------------------------------------------------------------------------

#ifdef RAWD_PATH
/// Starts rawd with `args`; `*out` receives its standard output.
pid_t SpawnRawd(const std::vector<std::string>& args, FILE** out) {
  // argv is built before fork: the child of a multi-threaded process may
  // only make async-signal-safe calls before exec.
  std::vector<char*> argv = {const_cast<char*>(RAWD_PATH)};
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(RAWD_PATH, argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  *out = ::fdopen(fds[0], "r");
  return pid;
}

int WaitExitCode(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(RawdTest, PortZeroBindsAnEphemeralPortAndPrintsIt) {
  FILE* out = nullptr;
  const pid_t pid =
      SpawnRawd({"--port=0", "--demo=100", "--autotune=0"}, &out);
  ASSERT_GT(pid, 0);
  ASSERT_NE(nullptr, out);
  char line[256] = {0};
  ASSERT_NE(nullptr, std::fgets(line, sizeof(line), out));
  int port = 0;
  ASSERT_EQ(1, std::sscanf(line, "rawd: listening on 127.0.0.1:%d", &port))
      << line;
  EXPECT_GT(port, 0);

  auto client = RawClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Hello().ok());
  auto resp = (*client)->Query("SELECT COUNT(*) FROM demo");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->status.ok()) << resp->status.ToString();
  EXPECT_EQ("100", resp->table.column(0)->GetDatum(0).ToString());
  EXPECT_TRUE((*client)->Goodbye().ok());

  ASSERT_EQ(0, ::kill(pid, SIGTERM));
  EXPECT_EQ(0, WaitExitCode(pid));
  std::fclose(out);
}

TEST(RawdTest, StatsBeforeTheFirstHelloCountsNoSession) {
  FILE* out = nullptr;
  const pid_t pid =
      SpawnRawd({"--port=0", "--demo=100", "--autotune=0"}, &out);
  ASSERT_GT(pid, 0);
  ASSERT_NE(nullptr, out);
  char line[256] = {0};
  ASSERT_NE(nullptr, std::fgets(line, sizeof(line), out));
  int port = 0;
  ASSERT_EQ(1, std::sscanf(line, "rawd: listening on 127.0.0.1:%d", &port))
      << line;

  auto client = RawClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // STATS needs no HELLO, and so no session: nothing has opened one yet.
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"sessions_opened\":0"), std::string::npos)
      << *stats;
  ASSERT_TRUE((*client)->Hello().ok());
  stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"sessions_opened\":1"), std::string::npos)
      << *stats;
  EXPECT_TRUE((*client)->Goodbye().ok());

  ASSERT_EQ(0, ::kill(pid, SIGTERM));
  EXPECT_EQ(0, WaitExitCode(pid));
  std::fclose(out);
}

TEST(RawdTest, NegativePortIsRejected) {
  FILE* out = nullptr;
  const pid_t pid = SpawnRawd({"--port=-1"}, &out);
  ASSERT_GT(pid, 0);
  EXPECT_EQ(2, WaitExitCode(pid));
  std::fclose(out);
}
#endif  // RAWD_PATH

}  // namespace
}  // namespace serve
}  // namespace raw
