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

std::shared_ptr<const Snapshot> GenesisSnapshot(index::StrgIndexParams params) {
  return std::make_shared<const Snapshot>(0, api::VideoDatabase(params));
}

}  // namespace

bool RequestState::TryFinalize(QueryResult r) {
  bool expected = false;
  // acq_rel: the winner's writes to `result` (under mu) must be visible to
  // a loser that observes finalized == true and then reads via WaitDone.
  if (!finalized.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return false;
  }
  if (metrics != nullptr) metrics->NoteStatus(r.status);
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
  QueryResult cancelled;
  cancelled.status = StatusCode::kCancelled;
  cancelled.latency_micros = MicrosSince(state_->start);
  state_->TryFinalize(std::move(cancelled));
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
  QueryResult expired;
  expired.status = StatusCode::kDeadlineExceeded;
  expired.latency_micros = MicrosSince(st.start);
  if (st.TryFinalize(std::move(expired)) && st.metrics != nullptr) {
    st.metrics->deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
  }
  return st.WaitDone();
}

QueryEngine::QueryEngine(index::StrgIndexParams params, EngineOptions opts)
    : opts_(opts),
      cache_(opts.cache_capacity, opts.cache_shards),
      head_(GenesisSnapshot(params)) {
  if (opts.runtime != nullptr) {
    runtime_ = opts.runtime;
  } else {
    AsyncRuntime::Options ro;
    ro.num_threads = opts.num_threads;
    // The engine's own admission (max_pending) is the intended bound; give
    // the private runtime headroom so it never second-guesses it.
    ro.max_queue = opts.max_pending < 1024 ? 2048 : opts.max_pending * 2;
    owned_runtime_ = std::make_unique<AsyncRuntime>(ro);
    runtime_ = owned_runtime_.get();
  }
}

template <typename MutateFn>
uint64_t QueryEngine::Publish(MutateFn&& mutate) {
  const auto start = Clock::now();
  MutexLock lock(writer_mu_);
  std::shared_ptr<const Snapshot> cur = head_.load();
  // The clone shares every record with `cur`; mutate path-copies the
  // root -> cluster path it writes, so `cur` stays intact for its readers.
  auto next = std::make_shared<Snapshot>(cur->generation + 1, cur->db.Clone());
  mutate(&next->db);
  head_.store(std::shared_ptr<const Snapshot>(std::move(next)));
  metrics_.ingests.fetch_add(1, std::memory_order_relaxed);
  metrics_.snapshots_published.fetch_add(1, std::memory_order_relaxed);
  metrics_.ingest_latency.Record(MicrosSince(start));
  return head_.load()->generation;
}

uint64_t QueryEngine::AddVideo(const std::string& name,
                               const api::SegmentResult& segment,
                               int* segment_id) {
  return Publish([&](api::VideoDatabase* db) {
    int id = db->AddVideo(name, segment);
    if (segment_id != nullptr) *segment_id = id;
  });
}

uint64_t QueryEngine::AddObjectGraph(int segment_id, const std::string& video,
                                     const core::Og& og,
                                     const dist::FeatureScaling& scaling) {
  return Publish([&](api::VideoDatabase* db) {
    db->AddObjectGraph(segment_id, video, og, scaling);
  });
}

void QueryEngine::RestoreGeneration(uint64_t generation) {
  MutexLock lock(writer_mu_);
  std::shared_ptr<const Snapshot> cur = head_.load();
  if (generation <= cur->generation) return;
  head_.store(std::make_shared<const Snapshot>(generation, cur->db.Clone()));
}

LatencyHistogram* QueryEngine::HistogramFor(api::QuerySpec::Kind kind) {
  switch (kind) {
    case api::QuerySpec::Kind::kSimilar:
      return &metrics_.knn_latency;
    case api::QuerySpec::Kind::kRange:
      return &metrics_.range_latency;
    case api::QuerySpec::Kind::kActive:
      return &metrics_.active_latency;
  }
  return &metrics_.knn_latency;
}

void QueryEngine::RunTask(const std::shared_ptr<RequestState>& state,
                          const api::QuerySpec& spec, uint64_t digest,
                          LatencyHistogram* histogram, bool use_cache) {
  RequestState& st = *state;

  // Cancelled while queued: skip the work. (A deadline-abandoned request,
  // by contrast, still executes — it fills the cache for the retry, which
  // is the pre-redesign behavior.)
  if (st.cancel_requested.load(std::memory_order_relaxed)) {
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    QueryResult cancelled;
    cancelled.status = StatusCode::kCancelled;
    cancelled.latency_micros = MicrosSince(st.start);
    st.TryFinalize(std::move(cancelled));
    return;
  }

  // Expired while queued: release the slot without doing the work.
  if (st.has_deadline && Clock::now() >= st.deadline) {
    metrics_.expired_in_queue.fetch_add(1, std::memory_order_relaxed);
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    QueryResult expired;
    expired.status = StatusCode::kDeadlineExceeded;
    expired.latency_micros = MicrosSince(st.start);
    st.TryFinalize(std::move(expired));
    return;
  }

  QueryResult result;
  std::shared_ptr<const Snapshot> snap = head_.load();
  CacheKey key{digest, snap->generation};
  bool hit = use_cache && cache_.Get(key, &result.hits);
  if (hit) {
    // Another request filled it between the fast-path miss and now.
    metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    try {
      api::VideoDatabase::QueryStats stats;
      result.hits = snap->db.Query(spec, &stats);
      // Cache hits never reach this branch, so the aggregates count
      // exactly the distance work actually performed.
      metrics_.distance_computations.fetch_add(stats.distance_computations,
                                               std::memory_order_relaxed);
      metrics_.lb_prunes.fetch_add(stats.lb_prunes,
                                   std::memory_order_relaxed);
      metrics_.early_abandons.fetch_add(stats.early_abandons,
                                        std::memory_order_relaxed);
    } catch (const std::exception&) {
      // Typed failure instead of an exception escaping a runtime worker
      // (the paged store's query path throws on I/O errors). Part of the
      // submit/complete contract: every request finalizes.
      metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
      QueryResult failed;
      failed.status = StatusCode::kIoError;
      failed.latency_micros = MicrosSince(st.start);
      st.TryFinalize(std::move(failed));
      return;
    }
    if (use_cache) {
      metrics_.cache_misses.fetch_add(1, std::memory_order_relaxed);
      cache_.Put(key, result.hits);
    }
  }
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  result.status = StatusCode::kOk;
  result.generation = snap->generation;
  result.from_cache = hit;
  result.latency_micros = MicrosSince(st.start);
  histogram->Record(result.latency_micros);

  // Completed after the deadline with nobody having finalized yet (an
  // async submitter that never called Wait): deliver the same outcome a
  // waiter would have seen.
  if (st.has_deadline && Clock::now() >= st.deadline) {
    QueryResult expired;
    expired.status = StatusCode::kDeadlineExceeded;
    expired.latency_micros = result.latency_micros;
    if (st.TryFinalize(std::move(expired))) {
      metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  st.TryFinalize(std::move(result));
}

QueryHandle QueryEngine::Submit(const api::QuerySpec& spec,
                                const QueryOptions& opts,
                                CompletionFn on_complete) {
  const auto start = Clock::now();
  // One digest computation at the API edge serves cache keying for every
  // kind; per-kind histograms keep the latency attribution of the old
  // dedicated entry points.
  const uint64_t digest = spec.Digest();
  LatencyHistogram* histogram = HistogramFor(spec.kind);

  auto state = std::make_shared<RequestState>();
  state->start = start;
  state->has_deadline = opts.timeout.count() != 0;
  state->deadline = start + opts.timeout;
  state->on_complete = std::move(on_complete);
  state->metrics = &metrics_;
  QueryHandle handle(state);

  // Fast path: serve repeated queries from the result cache on the calling
  // thread — one shard mutex, no admission slot, no runtime round-trip.
  if (opts.use_cache) {
    std::shared_ptr<const Snapshot> snap = head_.load();
    QueryResult result;
    if (cache_.Get({digest, snap->generation}, &result.hits)) {
      metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      result.status = StatusCode::kOk;
      result.generation = snap->generation;
      result.from_cache = true;
      result.latency_micros = MicrosSince(start);
      histogram->Record(result.latency_micros);
      state->TryFinalize(std::move(result));
      return handle;
    }
  }

  // Bounded admission: the queue-depth gauge doubles as the token counter.
  int64_t depth =
      metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics_.NoteQueueDepth(depth);
  if (depth > static_cast<int64_t>(opts_.max_pending)) {
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    metrics_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
    QueryResult rejected;
    rejected.status = StatusCode::kOverloaded;
    rejected.latency_micros = MicrosSince(start);
    state->TryFinalize(std::move(rejected));
    return handle;
  }
  metrics_.admitted.fetch_add(1, std::memory_order_relaxed);

  bool posted = runtime_->Post(
      [this, state, spec, digest, histogram, use_cache = opts.use_cache] {
        RunTask(state, spec, digest, histogram, use_cache);
      });
  if (!posted) {
    // The shared runtime's submission queue is full — shed here too,
    // releasing the admission slot the task will now never release.
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    metrics_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
    QueryResult rejected;
    rejected.status = StatusCode::kOverloaded;
    rejected.latency_micros = MicrosSince(start);
    state->TryFinalize(std::move(rejected));
  }
  return handle;
}

std::vector<api::VideoDatabase::QueryHit> QueryEngine::ExecuteShardLeg(
    const api::QuerySpec& spec, double initial_tau,
    api::VideoDatabase::QueryStats* stats, uint64_t* generation) const {
  std::shared_ptr<const Snapshot> snap = head_.load();
  if (generation != nullptr) *generation = snap->generation;
  return snap->db.Query(spec, stats, initial_tau);
}

}  // namespace strg::server
