#include "server/query_engine.h"

#include <exception>
#include <utility>

namespace strg::server {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Picks the per-kind latency histogram.
LatencyHistogram* HistogramFor(ServerMetrics* m, api::QuerySpec::Kind kind) {
  switch (kind) {
    case api::QuerySpec::Kind::kSimilar:
      return &m->knn_latency;
    case api::QuerySpec::Kind::kRange:
      return &m->range_latency;
    case api::QuerySpec::Kind::kActive:
      return &m->active_latency;
  }
  return &m->knn_latency;
}

}  // namespace

RequestState::RequestState(const api::QuerySpec& spec_in,
                           const api::SubmitOptions& opts,
                           CompletionFn on_complete_in,
                           ServerMetrics* metrics_in)
    : spec(spec_in),
      start(Clock::now()),
      deadline(start + opts.timeout),
      has_deadline(opts.timeout.count() != 0),
      on_complete(std::move(on_complete_in)),
      metrics(metrics_in) {}

bool RequestState::Admit(size_t max_pending) {
  // The queue-depth gauge doubles as the token counter.
  const int64_t depth =
      metrics->queue_depth.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics->NoteQueueDepth(depth);
  if (depth > static_cast<int64_t>(max_pending)) {
    metrics->queue_depth.fetch_sub(1, std::memory_order_relaxed);
    TryFinalize(StatusCode::kOverloaded, &ServerMetrics::rejected_overloaded);
    return false;
  }
  metrics->admitted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool RequestState::StartRun() {
  // Cancelled while queued: skip the work.
  if (cancel_requested.load(std::memory_order_relaxed)) {
    TryFinalize(StatusCode::kCancelled);
    return false;
  }
  // Expired while queued. A waiter whose deadline passed may already have
  // finalized (and counted) the outcome; TryFinalize counts it here only if
  // this finalize wins.
  if (has_deadline && Clock::now() >= deadline) {
    TryFinalize(StatusCode::kDeadlineExceeded,
                &ServerMetrics::expired_in_queue);
    return false;
  }
  // A waiter, a canceller or another leg already delivered an outcome;
  // don't burn a worker on an answer nobody will read.
  return !finalized.load(std::memory_order_acquire);
}

std::vector<api::VideoDatabase::QueryHit> RequestState::Execute(
    const api::VideoDatabase& db, double initial_tau) const {
  api::VideoDatabase::QueryStats stats;
  std::vector<api::VideoDatabase::QueryHit> hits =
      db.Query(spec, &stats, initial_tau);
  metrics->distance_computations.fetch_add(stats.distance_computations,
                                           std::memory_order_relaxed);
  metrics->lb_prunes.fetch_add(stats.lb_prunes, std::memory_order_relaxed);
  metrics->early_abandons.fetch_add(stats.early_abandons,
                                    std::memory_order_relaxed);
  return hits;
}

void RequestState::Complete(QueryResult r) {
  r.status = StatusCode::kOk;
  r.latency_micros = MicrosSince(start);
  HistogramFor(metrics, spec.kind)->Record(r.latency_micros);
  if (has_deadline && Clock::now() >= deadline) {
    QueryResult expired;
    expired.status = StatusCode::kDeadlineExceeded;
    expired.latency_micros = r.latency_micros;
    TryFinalize(std::move(expired), &ServerMetrics::deadline_exceeded);
    return;
  }
  TryFinalize(std::move(r));
}

bool RequestState::TryFinalize(
    QueryResult r, std::atomic<uint64_t> ServerMetrics::*counter) {
  bool expected = false;
  // acq_rel: the winner's writes to `result` (under mu) must be visible to
  // a loser that observes finalized == true and then reads via WaitDone.
  if (!finalized.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return false;
  }
  metrics->NoteStatus(r.status);
  if (counter != nullptr) {
    (metrics->*counter).fetch_add(1, std::memory_order_relaxed);
  }
  // Callback strictly before waiters are released: when Wait()/Query()
  // returns, the completion callback has already run (callers can tear
  // down whatever the callback touches as soon as Wait returns).
  if (on_complete) on_complete(r);
  {
    MutexLock lock(mu);
    result = std::move(r);
    done = true;
  }
  cv.NotifyAll();
  return true;
}

bool RequestState::TryFinalize(
    StatusCode code, std::atomic<uint64_t> ServerMetrics::*counter) {
  QueryResult r;
  r.status = code;
  r.latency_micros = MicrosSince(start);
  return TryFinalize(std::move(r), counter);
}

bool RequestState::Done() const {
  MutexLock lock(mu);
  return done;
}

QueryResult RequestState::WaitDone() {
  MutexLock lock(mu);
  while (!done) cv.Wait(mu);
  return result;
}

void QueryHandle::Cancel() {
  if (state_ == nullptr) return;
  state_->cancel_requested.store(true, std::memory_order_relaxed);
  // Finalize now so waiters/callbacks see kCancelled immediately; a task
  // already running keeps going, loses the CAS, and releases its admission
  // slot itself.
  state_->TryFinalize(StatusCode::kCancelled);
}

QueryResult QueryHandle::Wait() {
  if (state_ == nullptr) return {};
  RequestState& st = *state_;
  if (!st.has_deadline) return st.WaitDone();

  {
    MutexLock lock(st.mu);
    while (!st.done) {
      if (!st.cv.WaitUntil(st.mu, st.deadline)) break;
    }
    if (st.done) return st.result;
  }
  // Deadline passed while the task is still queued or running. The task
  // keeps its admission slot until it runs; finalize the caller-visible
  // outcome here (first finalizer wins — the worker may race us with the
  // real result, in which case we return that instead).
  st.TryFinalize(StatusCode::kDeadlineExceeded,
                 &ServerMetrics::deadline_exceeded);
  return st.WaitDone();
}

SnapshotChain::SnapshotChain(index::StrgIndexParams params)
    : head_(std::make_shared<const Snapshot>(0, api::VideoDatabase(params))) {}

std::shared_ptr<const Snapshot> SnapshotChain::snapshot() const {
  MutexLock lock(mu_);
  return head_;
}

void SnapshotChain::Store(std::shared_ptr<const Snapshot> next) {
  // Swap under the lock, destroy outside it: dropping the last reference
  // to a displaced generation releases one pointer per root and frees the
  // records no newer generation shares, and kSnapshot is a leaf rank —
  // teardown must not run while it is held.
  std::shared_ptr<const Snapshot> displaced;
  {
    MutexLock lock(mu_);
    displaced = std::move(head_);
    head_ = std::move(next);
  }
}

template <typename MutateFn>
uint64_t SnapshotChain::Publish(MutateFn&& mutate) {
  MutexLock lock(writer_mu_);
  std::shared_ptr<const Snapshot> cur = snapshot();
  // The clone shares every record with `cur`; mutate path-copies the
  // root -> cluster path it writes, so `cur` stays intact for its readers.
  auto next = std::make_shared<Snapshot>(cur->generation + 1, cur->db.Clone());
  mutate(&next->db);
  const uint64_t generation = next->generation;
  Store(std::shared_ptr<const Snapshot>(std::move(next)));
  return generation;
}

uint64_t SnapshotChain::AddVideo(const std::string& name,
                                 const api::SegmentResult& segment,
                                 int* segment_id) {
  return Publish([&](api::VideoDatabase* db) {
    int id = db->AddVideo(name, segment);
    if (segment_id != nullptr) *segment_id = id;
  });
}

uint64_t SnapshotChain::AddObjectGraph(int segment_id,
                                       const std::string& video,
                                       const core::Og& og,
                                       const dist::FeatureScaling& scaling) {
  return Publish([&](api::VideoDatabase* db) {
    db->AddObjectGraph(segment_id, video, og, scaling);
  });
}

void SnapshotChain::RestoreGeneration(uint64_t generation) {
  MutexLock lock(writer_mu_);
  std::shared_ptr<const Snapshot> cur = snapshot();
  if (generation <= cur->generation) return;
  Store(std::make_shared<const Snapshot>(generation, cur->db.Clone()));
}

QueryEngine::QueryEngine(index::StrgIndexParams params, EngineOptions opts)
    : opts_(opts), chain_(params), pool_(opts.num_threads) {}

uint64_t QueryEngine::AddVideo(const std::string& name,
                               const api::SegmentResult& segment,
                               int* segment_id) {
  const auto start = Clock::now();
  const uint64_t generation = chain_.AddVideo(name, segment, segment_id);
  metrics_.NotePublish(MicrosSince(start));
  return generation;
}

uint64_t QueryEngine::AddObjectGraph(int segment_id, const std::string& video,
                                     const core::Og& og,
                                     const dist::FeatureScaling& scaling) {
  const auto start = Clock::now();
  const uint64_t generation =
      chain_.AddObjectGraph(segment_id, video, og, scaling);
  metrics_.NotePublish(MicrosSince(start));
  return generation;
}

void QueryEngine::RunTask(RequestState& st) {
  if (!st.StartRun()) {
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  QueryResult result;
  std::shared_ptr<const Snapshot> snap = chain_.snapshot();
  try {
    result.hits = st.Execute(snap->db);
  } catch (const std::exception&) {
    // Typed failure instead of an exception escaping a pool worker (the
    // paged store's query path throws on I/O errors). Part of the
    // submit/complete contract: every request finalizes.
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    st.TryFinalize(StatusCode::kIoError);
    return;
  }
  // The token goes back before completion publishes the answer, so a
  // caller whose Query returned sees its request gone from queue_depth.
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  result.generation = snap->generation;
  st.Complete(std::move(result));
}

QueryHandle QueryEngine::Submit(const api::QuerySpec& spec,
                                const api::SubmitOptions& opts,
                                CompletionFn on_complete) {
  auto state = std::make_shared<RequestState>(spec, opts,
                                              std::move(on_complete),
                                              &metrics_);
  if (state->Admit(opts_.max_pending)) {
    pool_.Post([this, state] { RunTask(*state); });
  }
  return QueryHandle(std::move(state));
}

}  // namespace strg::server
