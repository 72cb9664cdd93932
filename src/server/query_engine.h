#ifndef STRG_SERVER_QUERY_ENGINE_H_
#define STRG_SERVER_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/query_spec.h"
#include "api/status.h"
#include "core/video_database.h"
#include "server/async_runtime.h"
#include "server/metrics.h"
#include "util/sync.h"

namespace strg::server {

/// Typed request outcome — the system-wide api::StatusCode vocabulary
/// (this used to be a server-local enum; it folded into api so the storage
/// and serving layers speak one set of codes). The engine degrades
/// predictably instead of collapsing: saturation yields kOverloaded, slow
/// queries against a deadline yield kDeadlineExceeded, a cancelled handle
/// yields kCancelled — all cheap, all counted.
using StatusCode = api::StatusCode;
using api::StatusCodeName;

struct EngineOptions {
  /// Worker threads executing queries (0 = hardware concurrency). Ignored
  /// when `runtime` is set (the shared runtime sizes its own pool).
  size_t num_threads = 2;
  /// Max requests admitted but not yet finished (queued + running). The
  /// bound is what turns overload into fast typed rejections instead of an
  /// unbounded queue whose latency grows without limit.
  size_t max_pending = 256;
  /// External request runtime to execute on (not owned; must outlive the
  /// engine). nullptr = the engine owns a private runtime sized by
  /// num_threads. A ShardedQueryEngine injects one shared runtime into all
  /// of its shard engines so per-shard fan-out tasks share one worker pool
  /// and one bounded submission queue.
  AsyncRuntime* runtime = nullptr;
};

struct QueryResult {
  StatusCode status = StatusCode::kOk;
  std::vector<api::VideoDatabase::QueryHit> hits;
  /// Index generation the answer was computed against (0 when the request
  /// never reached a snapshot: overload / expiry / cancellation).
  uint64_t generation = 0;
  double latency_micros = 0.0;
};

/// Completion callback of the submit/complete surface. Invoked exactly
/// once per submitted request, with the final QueryResult, by whichever
/// thread finalizes the request: a runtime worker (normal completion), the
/// submitting thread (admission rejection), a waiter whose deadline passed,
/// or a canceller. Runs before any Wait() on the
/// handle returns, so a caller may tear down callback-captured state as
/// soon as Wait comes back. Must not block (waiting on the same handle
/// inside the callback deadlocks) and must not re-enter the engine's
/// write path.
using CompletionFn = std::function<void(const QueryResult&)>;

/// Shared mutable state of one submitted request — the rendezvous between
/// the submitting thread (via QueryHandle), the runtime worker executing
/// the task, and the completion callback. Exactly one finalization wins
/// (TryFinalize's CAS), so late losers — a worker finishing after the
/// waiter's deadline fired, a cancel racing normal completion — are
/// silently dropped and every per-request metric is counted once.
struct RequestState {
  using Clock = std::chrono::steady_clock;

  // Immutable after Submit.
  Clock::time_point start;
  Clock::time_point deadline;
  bool has_deadline = false;
  CompletionFn on_complete;
  ServerMetrics* metrics = nullptr;  ///< NoteStatus sink (not owned)

  /// Set by QueryHandle::Cancel. A task that has not started yet converts
  /// this into a kCancelled completion without doing the work; a task
  /// already executing finishes (its result is dropped by the CAS).
  std::atomic<bool> cancel_requested{false};
  /// The exactly-once completion guard.
  std::atomic<bool> finalized{false};

  mutable Mutex mu{LockRank::kRequestState};
  CondVar cv;
  bool done STRG_GUARDED_BY(mu) = false;
  QueryResult result STRG_GUARDED_BY(mu);

  /// First caller wins: records the outcome (NoteStatus, and `counter` of
  /// the same registry when given, exactly once), publishes it to waiters,
  /// and invokes the completion callback. Counting comes first, so anyone
  /// who sees the outcome sees it counted. Returns false when someone else
  /// already finalized (the result is dropped, nothing is counted).
  bool TryFinalize(QueryResult r,
                   std::atomic<uint64_t> ServerMetrics::*counter = nullptr)
      STRG_EXCLUDES(mu);
  bool Done() const STRG_EXCLUDES(mu);
  /// Blocks until finalized; no deadline handling (the handle layers the
  /// request deadline on top).
  QueryResult WaitDone() STRG_EXCLUDES(mu);
};

/// Caller's view of one in-flight request: poll, wait (honouring the
/// request deadline), or cancel. Copyable and cheap (one shared_ptr); a
/// default-constructed handle is empty. The blocking Query() entry points
/// are Submit(...).Wait() — the handle is the whole synchronous story.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return state_ != nullptr; }
  /// Non-blocking: has the request finalized?
  bool Done() const { return state_ != nullptr && state_->Done(); }

  /// Requests cancellation. A request still queued completes kCancelled
  /// without executing; one already running completes normally (first
  /// finalizer wins). Idempotent; safe from any thread.
  void Cancel();

  /// Blocks until the request finalizes — or, when it was submitted with a
  /// deadline, until that deadline passes, in which case the request is
  /// finalized kDeadlineExceeded right here (the task may still run later;
  /// its result is dropped and its admission slot is released by itself).
  /// Returns the final result. Calling Wait on an empty handle returns a
  /// default (kOk, empty) result.
  QueryResult Wait() STRG_EXCLUDES_DYNAMIC(RequestState::mu);

 private:
  friend class QueryEngine;
  friend class ShardedQueryEngine;
  explicit QueryHandle(std::shared_ptr<RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<RequestState> state_;
};

/// One immutable published index generation. Readers hold it via
/// shared_ptr, so a generation stays alive until the last in-flight query
/// over it finishes, no matter how many newer generations exist.
/// Consecutive generations share every index record and record chunk that
/// no write in between touched (see index::StrgIndex).
struct Snapshot {
  uint64_t generation = 0;
  api::VideoDatabase db;
};

/// Epoch pointer to the published Snapshot. store/load are a constant-time
/// shared_ptr copy under a mutex — deliberately NOT std::atomic<shared_ptr>:
/// libstdc++ 12's lock-bit protocol for it is opaque to ThreadSanitizer and
/// drowns real races in false reports. The critical section is a refcount
/// bump (~ns); queries (~us..ms) never execute under it. Swapping in a
/// lock-free scheme (hazard pointers / RCU) later only touches this class.
class SnapshotHolder {
 public:
  explicit SnapshotHolder(std::shared_ptr<const Snapshot> initial)
      : ptr_(std::move(initial)) {}

  std::shared_ptr<const Snapshot> load() const STRG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ptr_;
  }
  void store(std::shared_ptr<const Snapshot> next) STRG_EXCLUDES(mu_) {
    // Swap under the lock, destroy outside it: dropping the last reference
    // to a displaced generation releases one pointer per root and frees the
    // records no newer generation shares, and kSnapshot is a leaf rank —
    // teardown must not run while it is held.
    std::shared_ptr<const Snapshot> displaced;
    {
      MutexLock lock(mu_);
      displaced = std::move(ptr_);
      ptr_ = std::move(next);
    }
  }

 private:
  mutable Mutex mu_{LockRank::kSnapshot};
  std::shared_ptr<const Snapshot> ptr_ STRG_GUARDED_BY(mu_);
};

/// Concurrent query-serving front-end over api::VideoDatabase.
///
/// Concurrency model — snapshot isolation via copy-on-write epochs:
///  - Writers (AddVideo / AddObjectGraph) serialize on a mutex, clone the
///    current generation, mutate the clone, and atomically publish it.
///    A writer never touches a published Snapshot.
///  - The clone shares structure: it copies one pointer per index root
///    (plus one per 64 OG records), and the write path-copies only the
///    root and cluster it changes. A publish therefore costs O(#roots +
///    touched cluster), not O(database).
///  - Readers grab the current Snapshot (a constant-time epoch-pointer
///    copy) and run the whole query against that immutable generation: no
///    lock is held during query execution, so there are no torn reads and
///    no half-inserted trees.
///
/// Request path — submit/complete over the async runtime:
///   Submit runs bounded admission, then posts the execution task to the
///   runtime and returns a QueryHandle. Completion flows through
///   RequestState: the worker finalizes the result, waiters are notified,
///   and the completion callback fires exactly once. The blocking
///   Query(spec) is Submit(...).Wait() — the old thread-per-request future
///   plumbing is gone, and all pre-redesign call sites behave
///   bit-identically.
class QueryEngine {
 public:
  explicit QueryEngine(index::StrgIndexParams params = {},
                       EngineOptions opts = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // ---- Writers (copy-on-write publish; serialized among themselves). ----

  /// Indexes a processed segment under `name`. Returns the new generation;
  /// `*segment_id` (optional) receives the root/segment id for later
  /// AddObjectGraph calls.
  uint64_t AddVideo(const std::string& name,
                    const api::SegmentResult& segment,
                    int* segment_id = nullptr) STRG_EXCLUDES(writer_mu_);

  /// Streams one more OG into an existing segment. Each call publishes
  /// exactly one new generation containing exactly one more OG — the
  /// invariant the concurrency stress test leans on.
  uint64_t AddObjectGraph(int segment_id, const std::string& video,
                          const core::Og& og,
                          const dist::FeatureScaling& scaling)
      STRG_EXCLUDES(writer_mu_);

  /// Fast-forwards the published generation number without changing data
  /// (only forward; lower targets are ignored). Recovery uses this to keep
  /// generation tokens continuous across restarts: a snapshot rebuild
  /// collapses many original publishes into a few, but clients holding
  /// pre-crash generation numbers must still see Generation() >= theirs.
  void RestoreGeneration(uint64_t generation) STRG_EXCLUDES(writer_mu_);

  // ---- Readers (admission-controlled, snapshot-isolated). ----

  /// The headline entry point: submits the request into the async runtime
  /// and returns a handle. `on_complete` (optional) fires exactly once
  /// with the final result. An overload rejection finalizes before Submit
  /// returns (the callback then runs on the calling thread).
  QueryHandle Submit(const api::QuerySpec& spec,
                     const api::SubmitOptions& opts = {},
                     CompletionFn on_complete = nullptr);

  /// Blocking spelling: Submit + Wait.
  QueryResult Query(const api::QuerySpec& spec,
                    const api::SubmitOptions& opts = {}) {
    return Submit(spec, opts).Wait();
  }

  // ---- Introspection. ----

  /// Currently published generation (constant-time epoch read). Tests query
  /// the returned snapshot's db directly to validate immutability.
  std::shared_ptr<const Snapshot> snapshot() const { return head_.load(); }
  uint64_t Generation() const { return snapshot()->generation; }

  const ServerMetrics& metrics() const { return metrics_; }
  /// Mutable registry access for layers that wrap the engine and account
  /// their own work here (the durable engine's WAL counters).
  ServerMetrics& mutable_metrics() { return metrics_; }
  std::string MetricsJson() const {
    return metrics_.ToJson(Generation());
  }

  AsyncRuntime& runtime() { return *runtime_; }

 private:
  friend class ShardedQueryEngine;

  /// Picks the per-kind latency histogram (attribution parity with the old
  /// dedicated entry points).
  LatencyHistogram* HistogramFor(api::QuerySpec::Kind kind);

  /// The worker-side execution: deadline/cancel checks, snapshot query,
  /// metrics, finalization. Runs on a runtime worker.
  void RunTask(const std::shared_ptr<RequestState>& state,
               const api::QuerySpec& spec, LatencyHistogram* histogram);

  /// Scatter-gather hook for ShardedQueryEngine: one shard leg executed
  /// synchronously on the caller's (worker) thread against the current
  /// snapshot. `initial_tau` seeds kNN pruning with the gatherer's running
  /// global worst-of-k.
  std::vector<api::VideoDatabase::QueryHit> ExecuteShardLeg(
      const api::QuerySpec& spec, double initial_tau,
      api::VideoDatabase::QueryStats* stats, uint64_t* generation) const;

  /// Clone-mutate-publish under writer_mu_; the published Snapshot itself
  /// is immutable, so readers never take this lock.
  template <typename MutateFn>
  uint64_t Publish(MutateFn&& mutate) STRG_EXCLUDES(writer_mu_);

  EngineOptions opts_;
  ServerMetrics metrics_;
  /// Serializes writers (the clone-mutate-publish window). It guards the
  /// *protocol*, not a field: the data being built is the local `next`
  /// snapshot, and publication goes through head_'s own mutex.
  Mutex writer_mu_{LockRank::kEngineWriter};
  SnapshotHolder head_;
  /// Declared last: destroyed first, so accepted tasks drain while the
  /// members they reference are still alive. Null when an external runtime
  /// was injected (runtime_ then points at it and outlives us by contract).
  std::unique_ptr<AsyncRuntime> owned_runtime_;
  AsyncRuntime* runtime_ = nullptr;
};

}  // namespace strg::server

#endif  // STRG_SERVER_QUERY_ENGINE_H_
