#ifndef STRG_UTIL_THREAD_POOL_H_
#define STRG_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace strg {

/// Minimal fixed-size thread pool.
///
/// Three entry points:
///  - ParallelFor: data-parallel loops (EM's K x M distance matrix, index
///    builds) — chunks an index range over the workers and blocks until
///    every chunk finished. Exceptions thrown by the body are rethrown on
///    the calling thread.
///  - Post: fire-and-forget tasks. Each serving engine (QueryEngine,
///    ShardedQueryEngine) owns one pool and posts every admitted request,
///    or each of its shard legs, here; the task reports its outcome through
///    the request's own completion state, and the engine's admission bound
///    (max_pending) is what bounds the queue.
///  - Submit: a posted task that returns a std::future — the pipeline's
///    OrderedStage hands frames to the segmentation workers this way.
///
/// Post never refuses a task. The destructor drains: tasks queued when it
/// runs still execute, and so does a task that a running task posts
/// meanwhile (a completion callback submitting a follow-up request), since
/// the worker that posted it checks the queue again before it exits.
class ThreadPool {
 public:
  /// `threads` = 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Runs body(i) for i in [begin, end), distributed over the pool, and
  /// waits for completion. Safe to call with begin >= end (no-op).
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body)
      STRG_EXCLUDES(mutex_);

  /// Schedules `task` on the pool. Never blocks beyond the queue mutex and
  /// never refuses, also while the destructor drains (see the class
  /// comment). `task` must not throw: nothing catches it on the worker.
  void Post(std::function<void()> task) STRG_EXCLUDES(mutex_);

  /// Posts `f()` and returns a future for its result. Exceptions propagate
  /// through the future.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>>
      STRG_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    Post([task] { (*task)(); });
    return result;
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mutex_{LockRank::kThreadPool};
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ STRG_GUARDED_BY(mutex_);
  bool stop_ STRG_GUARDED_BY(mutex_) = false;
};

}  // namespace strg

#endif  // STRG_UTIL_THREAD_POOL_H_
