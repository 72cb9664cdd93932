#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace strg {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Post(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit predicate loop (not the lambda-predicate Wait): the
      // analysis proves guarded accesses in this function body, which a
      // closure would hide from it.
      while (!stop_ && tasks_.empty()) cv_.Wait(mutex_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t chunks = std::min(n, workers_.size() * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;

  // Completion handshake. `remaining` is guarded by `done_mutex` (not an
  // atomic): the last worker must publish "done" and notify while holding
  // the lock, so the waiter — which can only re-check the predicate under
  // the same lock — cannot wake, return, and destroy these locals while a
  // worker still touches them.
  std::exception_ptr error;
  Mutex error_mutex{LockRank::kPoolError};
  Mutex done_mutex{LockRank::kPoolDone};
  CondVar done_cv;
  size_t remaining = 0;

  std::vector<std::function<void()>> chunk_tasks;
  for (size_t c = 0; c < chunks; ++c) {
    size_t lo = begin + c * chunk_size;
    if (lo >= end) break;
    size_t hi = std::min(end, lo + chunk_size);
    ++remaining;
    chunk_tasks.push_back([&, lo, hi] {
      try {
        for (size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        MutexLock elock(error_mutex);
        if (!error) error = std::current_exception();
      }
      {
        MutexLock dlock(done_mutex);
        if (--remaining == 0) done_cv.NotifyAll();
      }
    });
  }
  {
    MutexLock lock(mutex_);
    for (auto& t : chunk_tasks) tasks_.push(std::move(t));
  }
  cv_.NotifyAll();

  {
    MutexLock lock(done_mutex);
    while (remaining != 0) done_cv.Wait(done_mutex);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace strg
