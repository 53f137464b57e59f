#ifndef RAW_COMMON_THREAD_POOL_H_
#define RAW_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/macros.h"
#include "common/status.h"

namespace raw {

/// Fixed-size worker pool behind the morsel-driven parallel scan layer.
///
/// Design notes for callers that block inside tasks: the pool is
/// work-stealing-friendly rather than work-stealing — any thread (a worker or
/// an outside caller waiting for results) can drain queued tasks through
/// TryRunPendingTask(), so nested submission (a task that submits subtasks
/// and waits for them) makes progress even when every worker is busy.
/// Tasks submitted as kWorkerOnly are the exception: only pool workers run
/// them. Exceptions thrown by a task are captured in the future returned by
/// Submit() and rethrown to whoever calls get().
class ThreadPool {
 public:
  /// Who may run a task.
  enum class TaskKind {
    /// Any pool worker, or any thread helping while it waits.
    kHelpable,
    /// Pool workers only: for tasks that may block until the submitting
    /// thread makes progress. A parallel scan's morsel workers wait on their
    /// consumer's backpressure; had the consumer run one inline while
    /// waiting for other work (HelpWait), it would wait for itself.
    kWorkerOnly,
  };

  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();
  RAW_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn`; the future completes when it ran (or threw).
  std::future<void> Submit(std::function<void()> fn,
                           TaskKind kind = TaskKind::kHelpable);

  /// Runs the oldest queued helpable task on the calling thread, if any.
  /// Returns true when a task was run. Lets waiting callers help instead of
  /// blocking.
  bool TryRunPendingTask();

  /// Blocks until `fut` is ready, draining queued tasks meanwhile. Safe to
  /// call from inside a pool task.
  void HelpWait(std::future<void>& fut);

  /// Runs fn(0..n-1) across up to `parallelism` claimants (the calling thread
  /// participates, so this never deadlocks when invoked from inside a task).
  /// Returns the error of the smallest failing index; remaining indices are
  /// abandoned after the first observed failure.
  Status ParallelFor(int64_t n, int parallelism,
                     const std::function<Status(int64_t)>& fn);

  /// Deadline-aware ParallelFor: claimants re-check `deadline` before every
  /// index; once it expires, remaining indices are abandoned and the call
  /// returns ResourceExhausted (already-started indices still finish).
  Status ParallelFor(int64_t n, int parallelism, const Deadline& deadline,
                     const std::function<Status(int64_t)>& fn);

  /// Process-wide shared pool used by the engine's parallel operators.
  /// Sized max(hardware_concurrency, 8) so tests exercising num_threads=8
  /// get real interleaving even on small machines.
  static ThreadPool* Shared();

  /// Number of queued-but-not-started tasks (diagnostics/tests).
  int64_t queue_depth() const;

 private:
  struct Task {
    std::packaged_task<void()> fn;
    TaskKind kind = TaskKind::kHelpable;
  };

  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace raw

#endif  // RAW_COMMON_THREAD_POOL_H_
