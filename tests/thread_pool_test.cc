// ThreadPool semantics the parallel scan layer leans on: every submitted
// task runs exactly once, exceptions surface through futures, errors in
// ParallelFor propagate, nested submission cannot deadlock (waiters help
// drain the queue, but never run worker-only tasks), and a many-tiny-tasks
// stress run completes. The stress cases double as the TSan targets of the
// `concurrency` ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/file_lock.h"
#include "common/thread_pool.h"
#include "tests/test_util.h"

namespace raw {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> runs{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&runs] { ++runs; }));
  }
  for (auto& fut : futures) fut.get();
  EXPECT_EQ(runs.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&runs] { ++runs; });
    }
  }  // ~ThreadPool joins after the queue is drained
  EXPECT_EQ(runs.load(), 50);
}

TEST(ThreadPoolTest, TaskExceptionSurfacesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("task boom"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndex) {
  ThreadPool pool(4);
  const int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ASSERT_OK(pool.ParallelFor(n, 4, [&hits](int64_t i) {
    ++hits[static_cast<size_t>(i)];
    return Status::OK();
  }));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesTaskError) {
  ThreadPool pool(4);
  Status st = pool.ParallelFor(100, 4, [](int64_t i) {
    if (i == 37) return Status::Internal("failed at 37");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.ToString().find("failed at 37"), std::string::npos);
}

TEST(ThreadPoolTest, ParallelForFromInsidePoolTaskDoesNotDeadlock) {
  // Nested submission: every outer task fans out again on the same pool.
  // The outer tasks participate in their inner loops (and waiters drain the
  // queue), so this completes even though outer tasks occupy every worker.
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  ASSERT_OK(pool.ParallelFor(8, 8, [&pool, &total](int64_t) {
    return pool.ParallelFor(16, 4, [&total](int64_t) {
      ++total;
      return Status::OK();
    });
  }));
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, NestedSubmitWithHelpWaitCompletes) {
  ThreadPool pool(1);  // a single worker forces the outer task to help
  std::atomic<int> inner_runs{0};
  std::future<void> outer = pool.Submit([&pool, &inner_runs] {
    std::vector<std::future<void>> inner;
    for (int i = 0; i < 8; ++i) {
      inner.push_back(pool.Submit([&inner_runs] { ++inner_runs; }));
    }
    for (auto& fut : inner) pool.HelpWait(fut);
  });
  pool.HelpWait(outer);
  outer.get();
  EXPECT_EQ(inner_runs.load(), 8);
}

TEST(ThreadPoolTest, HelpersNeverRunWorkerOnlyTasks) {
  ThreadPool pool(1);
  // Park the only worker so queued tasks wait for a helper.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<void> parked = pool.Submit([released] { released.wait(); });
  while (pool.queue_depth() > 0) std::this_thread::yield();

  const std::thread::id helper = std::this_thread::get_id();
  std::thread::id worker_only_ran_on;
  std::future<void> worker_only = pool.Submit(
      [&worker_only_ran_on] {
        worker_only_ran_on = std::this_thread::get_id();
      },
      ThreadPool::TaskKind::kWorkerOnly);
  std::thread::id helpable_ran_on;
  std::future<void> helpable = pool.Submit(
      [&helpable_ran_on] { helpable_ran_on = std::this_thread::get_id(); });

  // The helper skips the older worker-only task and runs the helpable one.
  pool.HelpWait(helpable);
  EXPECT_EQ(helpable_ran_on, helper);
  EXPECT_FALSE(pool.TryRunPendingTask());
  EXPECT_EQ(pool.queue_depth(), 1);

  release.set_value();
  worker_only.get();
  EXPECT_NE(worker_only_ran_on, helper);
  parked.get();
}

TEST(ThreadPoolStressTest, ManyTinyTasks) {
  ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  const int64_t n = 20000;
  ASSERT_OK(pool.ParallelFor(n, 8, [&sum](int64_t i) {
    sum += i;
    return Status::OK();
  }));
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPoolStressTest, ConcurrentSubmittersAndHelpers) {
  ThreadPool pool(4);
  std::atomic<int64_t> runs{0};
  // Several outer tasks submit bursts of tiny tasks and help drain them.
  ASSERT_OK(pool.ParallelFor(16, 8, [&pool, &runs](int64_t) {
    std::vector<std::future<void>> batch;
    for (int i = 0; i < 64; ++i) {
      batch.push_back(pool.Submit([&runs] { ++runs; }));
    }
    for (auto& fut : batch) pool.HelpWait(fut);
    return Status::OK();
  }));
  EXPECT_EQ(runs.load(), 16 * 64);
}

TEST(ThreadPoolTest, SharedPoolIsStableAndWideEnoughForTests) {
  ThreadPool* a = ThreadPool::Shared();
  ThreadPool* b = ThreadPool::Shared();
  EXPECT_EQ(a, b);
  EXPECT_GE(a->num_threads(), 8);
}

// --- FileLock (the cross-process dataset guard) ------------------------------

TEST(FileLockTest, ExclusionBetweenHandles) {
  ASSERT_OK_AND_ASSIGN(TempDir dir, TempDir::Create("raw_lock_"));
  std::string path = dir.FilePath("x.lock");
  ASSERT_OK_AND_ASSIGN(FileLock held, FileLock::Acquire(path));
  // flock exclusion is per open file description; a second acquisition from
  // this process still contends because TryAcquire opens the file anew.
  auto second = FileLock::TryAcquire(path);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  held.Release();
  ASSERT_OK_AND_ASSIGN(FileLock reacquired, FileLock::TryAcquire(path));
  reacquired.Release();
}

TEST(FileLockTest, ManyThreadsContendWithoutDeadlock) {
  // flock is a cross-process primitive; TSan cannot see a happens-before
  // edge through it, so the critical sections only touch an atomic. What
  // this exercises: 8 threads × blocking Acquire on one lock file, every
  // acquisition succeeds, nothing deadlocks or leaks an fd.
  ASSERT_OK_AND_ASSIGN(TempDir dir, TempDir::Create("raw_lock_"));
  std::string path = dir.FilePath("c.lock");
  ThreadPool pool(8);
  std::atomic<int64_t> acquisitions{0};
  ASSERT_OK(pool.ParallelFor(64, 8, [&](int64_t) {
    RAW_ASSIGN_OR_RETURN(FileLock lock, FileLock::Acquire(path));
    ++acquisitions;
    return Status::OK();
  }));
  EXPECT_EQ(acquisitions.load(), 64);
}


TEST(ThreadPoolTest, DeadlineParallelForCompletesBeforeExpiry) {
  ThreadPool pool(4);
  std::atomic<int64_t> hits{0};
  ASSERT_OK(pool.ParallelFor(64, 4, Deadline::AfterMillis(60 * 1000),
                             [&hits](int64_t) {
                               hits.fetch_add(1);
                               return Status::OK();
                             }));
  EXPECT_EQ(hits.load(), 64);
}

TEST(ThreadPoolTest, DeadlineParallelForInfiniteDeadlineRunsAll) {
  ThreadPool pool(4);
  std::atomic<int64_t> hits{0};
  ASSERT_OK(pool.ParallelFor(32, 4, Deadline(), [&hits](int64_t) {
    hits.fetch_add(1);
    return Status::OK();
  }));
  EXPECT_EQ(hits.load(), 32);
}

TEST(ThreadPoolTest, DeadlineParallelForAbandonsExpiredWork) {
  ThreadPool pool(4);
  std::atomic<int64_t> hits{0};
  Status st = pool.ParallelFor(1000, 4, Deadline::Expired(),
                               [&hits](int64_t) {
                                 hits.fetch_add(1);
                                 return Status::OK();
                               });
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hits.load(), 0);
}

}  // namespace
}  // namespace raw
