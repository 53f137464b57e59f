#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace raw {

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front().fn);
      queue_.pop_front();
    }
    task();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn,
                                     TaskKind kind) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Task{std::move(task), kind});
  }
  cv_.notify_one();
  return fut;
}

bool ThreadPool::TryRunPendingTask() {
  std::packaged_task<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find_if(queue_.begin(), queue_.end(), [](const Task& t) {
      return t.kind == TaskKind::kHelpable;
    });
    if (it == queue_.end()) return false;
    task = std::move(it->fn);
    queue_.erase(it);
  }
  task();
  return true;
}

void ThreadPool::HelpWait(std::future<void>& fut) {
  while (fut.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    if (!TryRunPendingTask()) {
      fut.wait_for(std::chrono::milliseconds(1));
    }
  }
}

int64_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

Status ThreadPool::ParallelFor(int64_t n, int parallelism,
                               const Deadline& deadline,
                               const std::function<Status(int64_t)>& fn) {
  if (deadline.is_infinite()) return ParallelFor(n, parallelism, fn);
  return ParallelFor(n, parallelism, [&](int64_t i) -> Status {
    if (deadline.expired()) {
      return Status::ResourceExhausted("deadline exceeded in ParallelFor");
    }
    return fn(i);
  });
}

Status ThreadPool::ParallelFor(int64_t n, int parallelism,
                               const std::function<Status(int64_t)>& fn) {
  if (n <= 0) return Status::OK();
  parallelism = std::max(1, std::min<int>(parallelism,
                                          static_cast<int>(std::min<int64_t>(
                                              n, num_threads() + 1))));
  auto next = std::make_shared<std::atomic<int64_t>>(0);
  // Smallest failing index wins so the reported error is deterministic.
  auto err_index = std::make_shared<std::atomic<int64_t>>(n);
  auto err_mu = std::make_shared<std::mutex>();
  auto err = std::make_shared<Status>(Status::OK());

  auto worker = [n, next, err_index, err_mu, err, &fn] {
    while (true) {
      int64_t i = next->fetch_add(1, std::memory_order_relaxed);
      if (i >= n || err_index->load(std::memory_order_relaxed) < n) break;
      Status st = fn(i);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(*err_mu);
        if (i < err_index->load(std::memory_order_relaxed)) {
          err_index->store(i, std::memory_order_relaxed);
          *err = std::move(st);
        }
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(parallelism - 1));
  for (int t = 0; t < parallelism - 1; ++t) futures.push_back(Submit(worker));
  // The caller participates. Queued tasks reference `fn`, so even if it
  // throws here, every submitted task must finish before this frame unwinds.
  std::exception_ptr caller_ex;
  try {
    worker();
  } catch (...) {
    caller_ex = std::current_exception();
    err_index->store(-1, std::memory_order_relaxed);  // stop claiming
  }
  std::exception_ptr task_ex;
  for (std::future<void>& fut : futures) {
    HelpWait(fut);
    try {
      fut.get();
    } catch (...) {
      if (!task_ex) task_ex = std::current_exception();
    }
  }
  if (caller_ex) std::rethrow_exception(caller_ex);
  if (task_ex) std::rethrow_exception(task_ex);

  std::lock_guard<std::mutex> lock(*err_mu);
  return *err;
}

ThreadPool* ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(static_cast<int>(
      std::max(8u, std::thread::hardware_concurrency())));
  return pool;
}

}  // namespace raw
