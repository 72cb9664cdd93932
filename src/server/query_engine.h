#ifndef STRG_SERVER_QUERY_ENGINE_H_
#define STRG_SERVER_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/query_spec.h"
#include "api/status.h"
#include "core/video_database.h"
#include "server/metrics.h"
#include "util/sync.h"
#include "util/thread_pool.h"

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
  /// Worker threads of the engine's own pool (0 = hardware concurrency).
  size_t num_threads = 2;
  /// Max requests admitted but not yet finished (queued + running). The
  /// bound is what turns overload into fast typed rejections instead of an
  /// unbounded queue whose latency grows without limit, and it is the only
  /// bound on the pool's queue.
  size_t max_pending = 256;
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
/// thread finalizes the request: a pool worker (normal completion), the
/// submitting thread (admission rejection), a waiter whose deadline passed,
/// or a canceller. Runs before any Wait() on the
/// handle returns, so a caller may tear down callback-captured state as
/// soon as Wait comes back. Must not block (waiting on the same handle
/// inside the callback deadlocks) and must not re-enter the engine's
/// write path. It may submit a follow-up request, even while the engine is
/// being destroyed: the pool drains it before its workers join.
using CompletionFn = std::function<void(const QueryResult&)>;

/// One submitted request: what was asked, the rendezvous between the
/// submitting thread (via QueryHandle), the pool worker executing it and
/// the completion callback, and the lifecycle steps both serving engines
/// run it through — Admit at submit, StartRun when a worker picks it up,
/// Execute against a snapshot, Complete with the answer. Exactly one
/// finalization wins (TryFinalize's CAS), so late losers — a worker
/// finishing after the waiter's deadline fired, a cancel racing normal
/// completion — are silently dropped and every per-request metric is
/// counted once. The engines differ only in when they give their
/// admission token back: QueryEngine when its one task is done,
/// ShardedQueryEngine when the request's last leg is.
struct RequestState {
  using Clock = std::chrono::steady_clock;

  /// `metrics` is the submitting engine's registry (not owned): admission
  /// takes its token there, and every outcome and counter lands there.
  RequestState(const api::QuerySpec& spec, const api::SubmitOptions& opts,
               CompletionFn on_complete, ServerMetrics* metrics);

  // Immutable after construction.
  api::QuerySpec spec;
  Clock::time_point start;
  Clock::time_point deadline;
  bool has_deadline = false;
  CompletionFn on_complete;
  ServerMetrics* metrics = nullptr;

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

  /// Bounded admission: takes one token from metrics->queue_depth. Past
  /// `max_pending` it gives the token back, finalizes the request
  /// kOverloaded on the calling thread and returns false. On true the
  /// caller holds the token and gives it back when the engine is done with
  /// the request.
  bool Admit(size_t max_pending) STRG_EXCLUDES(mu);

  /// The worker's pre-run check. A request cancelled or expired while
  /// queued is finalized here (kCancelled, or kDeadlineExceeded counted in
  /// expired_in_queue if this finalize wins); one already finalized
  /// elsewhere is skipped. Returns true when the work should run.
  bool StartRun() STRG_EXCLUDES(mu);

  /// Runs `spec` against `db`, seeding kNN pruning with `initial_tau`, and
  /// folds the query's distance-kernel counters into the registry.
  std::vector<api::VideoDatabase::QueryHit> Execute(
      const api::VideoDatabase& db,
      double initial_tau = std::numeric_limits<double>::infinity()) const;

  /// Completion: stamps kOk and the latency, records it in the latency
  /// histogram of spec.kind, and finalizes. An answer that arrives after the deadline with nobody
  /// having finalized yet (an async submitter that never called Wait)
  /// finalizes kDeadlineExceeded instead, counted in deadline_exceeded.
  void Complete(QueryResult r) STRG_EXCLUDES(mu);

  /// First caller wins: records the outcome (NoteStatus, and `counter` of
  /// the same registry when given, exactly once), publishes it to waiters,
  /// and invokes the completion callback. Counting comes first, so anyone
  /// who sees the outcome sees it counted. Returns false when someone else
  /// already finalized (the result is dropped, nothing is counted).
  bool TryFinalize(QueryResult r,
                   std::atomic<uint64_t> ServerMetrics::*counter = nullptr)
      STRG_EXCLUDES(mu);
  /// TryFinalize with an answerless result: `code` and the latency so far.
  bool TryFinalize(StatusCode code,
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
  /// The handle over a submitted request (built by the engines' Submit).
  explicit QueryHandle(std::shared_ptr<RequestState> state)
      : state_(std::move(state)) {}

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

/// A chain of published index generations: the write half of a serving
/// engine. QueryEngine holds one; ShardedQueryEngine holds one per shard.
///
/// Snapshot isolation via copy-on-write epochs:
///  - Writers (AddVideo / AddObjectGraph) serialize on writer_mu_, clone
///    the current generation, mutate the clone, and publish it. A writer
///    never touches a published Snapshot.
///  - The clone shares structure: it copies one pointer per index root
///    (plus one per 64 OG records), and the write path-copies only the
///    root and cluster it changes. A publish therefore costs O(#roots +
///    touched cluster), not O(database).
///  - Readers grab the current Snapshot (snapshot(): a constant-time
///    epoch-pointer copy) and run the whole query against that immutable
///    generation: no lock is held during query execution, so there are no
///    torn reads and no half-inserted trees.
///
/// The epoch pointer is a shared_ptr copied under a mutex — deliberately
/// NOT std::atomic<shared_ptr>: libstdc++ 12's lock-bit protocol for it is
/// opaque to ThreadSanitizer and drowns real races in false reports. The
/// critical section is a refcount bump (~ns); queries (~us..ms) never
/// execute under it. Swapping in a lock-free scheme (hazard pointers /
/// RCU) later only touches this class.
class SnapshotChain {
 public:
  explicit SnapshotChain(index::StrgIndexParams params);

  SnapshotChain(const SnapshotChain&) = delete;
  SnapshotChain& operator=(const SnapshotChain&) = delete;

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

  /// The currently published generation (constant-time epoch read).
  std::shared_ptr<const Snapshot> snapshot() const STRG_EXCLUDES(mu_);
  uint64_t Generation() const { return snapshot()->generation; }

 private:
  /// Clone-mutate-publish under writer_mu_; the published Snapshot itself
  /// is immutable, so readers never take this lock.
  template <typename MutateFn>
  uint64_t Publish(MutateFn&& mutate) STRG_EXCLUDES(writer_mu_);
  void Store(std::shared_ptr<const Snapshot> next) STRG_EXCLUDES(mu_);

  /// Serializes writers (the clone-mutate-publish window). It guards the
  /// *protocol*, not a field: the data being built is the local `next`
  /// snapshot, and publication goes through mu_.
  Mutex writer_mu_{LockRank::kEngineWriter};
  mutable Mutex mu_{LockRank::kSnapshot};
  std::shared_ptr<const Snapshot> head_ STRG_GUARDED_BY(mu_);
};

/// Concurrent query-serving front-end over api::VideoDatabase: one
/// SnapshotChain (writers publish copy-on-write generations, readers query
/// an immutable one), bounded admission, and the engine's own ThreadPool.
///
/// Request path — submit/complete: Submit builds the RequestState, runs
/// admission, and posts one task to the pool, returning a QueryHandle. The
/// worker runs the pre-run check, queries the current snapshot, and
/// completes the request: waiters are notified and the completion callback
/// fires exactly once. At most `max_pending` tasks are ever queued or
/// running, and kOverloaded comes only from admission. The pool is this
/// engine's alone and is declared last, so it drains first. The blocking
/// Query(spec) is Submit(...).Wait().
class QueryEngine {
 public:
  explicit QueryEngine(index::StrgIndexParams params = {},
                       EngineOptions opts = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // ---- Writers (copy-on-write publish; serialized among themselves). ----

  /// SnapshotChain::AddVideo, counted in the ingest metrics.
  uint64_t AddVideo(const std::string& name,
                    const api::SegmentResult& segment,
                    int* segment_id = nullptr);

  /// SnapshotChain::AddObjectGraph, counted in the ingest metrics.
  uint64_t AddObjectGraph(int segment_id, const std::string& video,
                          const core::Og& og,
                          const dist::FeatureScaling& scaling);

  /// See SnapshotChain::RestoreGeneration.
  void RestoreGeneration(uint64_t generation) {
    chain_.RestoreGeneration(generation);
  }

  // ---- Readers (admission-controlled, snapshot-isolated). ----

  /// The headline entry point: admits the request, posts it to the pool
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

  /// Currently published generation. Tests query the returned snapshot's
  /// db directly to validate immutability.
  std::shared_ptr<const Snapshot> snapshot() const {
    return chain_.snapshot();
  }
  uint64_t Generation() const { return chain_.Generation(); }

  const ServerMetrics& metrics() const { return metrics_; }
  /// Mutable registry access for layers that wrap the engine and account
  /// their own work here (the durable engine's WAL counters).
  ServerMetrics& mutable_metrics() { return metrics_; }
  std::string MetricsJson() const {
    return metrics_.ToJson(Generation());
  }

 private:
  /// The pool task: pre-run check, snapshot query, token release,
  /// completion.
  void RunTask(RequestState& st);

  EngineOptions opts_;
  ServerMetrics metrics_;
  SnapshotChain chain_;
  /// Declared last: destroyed first, so queued tasks drain while the
  /// members they reference are still alive.
  ThreadPool pool_;
};

}  // namespace strg::server

#endif  // STRG_SERVER_QUERY_ENGINE_H_
