#include "server/sharded_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <utility>

namespace strg::server {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Routing hash seed. Tools, tests and benchmark catalogs rely on where
/// each video lands, so the seed and the hash in ShardFor must not change.
constexpr uint64_t kShardSeed = 0x5354524753484152ULL;  // "STRGSHAR"

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

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

/// Global result order: distance, then global og id. Matches both the
/// single-engine kNN resolve order and (trivially, all distances equal)
/// the ascending-id order of range ties and kActive scans.
bool HitBefore(const api::VideoDatabase::QueryHit& a,
               const api::VideoDatabase::QueryHit& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.og_id < b.og_id;
}

}  // namespace

/// One request's scatter-gather rendezvous, shared by its leg tasks.
struct ShardedQueryEngine::Gather {
  std::shared_ptr<RequestState> state;
  api::QuerySpec spec;
  uint64_t generation = 0;  ///< global generation at submission
  LatencyHistogram* histogram = nullptr;

  /// Legs not yet finished; the leg that drops this to zero completes the
  /// request (and releases the global admission token).
  std::atomic<int> legs_remaining{0};
  /// Running worst-of-k distance (bit pattern of a double), readable
  /// without the merge lock. Starts +inf; only ever tightens, and only
  /// once `merged` holds k hits — so it is always an upper bound on the
  /// true global k-th distance and pruning with it stays exact.
  std::atomic<uint64_t> tau_bits{std::bit_cast<uint64_t>(kInf)};

  Mutex merge_mu{LockRank::kGatherMerge};
  /// kSimilar: kept sorted by HitBefore and truncated to k on every merge.
  /// kRange/kActive: appended, sorted once at completion.
  std::vector<api::VideoDatabase::QueryHit> merged STRG_GUARDED_BY(merge_mu);
};

ShardedQueryEngine::ShardedQueryEngine(index::StrgIndexParams params,
                                       ShardedEngineOptions opts)
    : ShardedQueryEngine(
          std::vector<index::StrgIndexParams>(
              opts.num_shards == 0 ? 1 : opts.num_shards, params),
          opts) {}

ShardedQueryEngine::ShardedQueryEngine(
    std::vector<index::StrgIndexParams> per_shard_params,
    ShardedEngineOptions opts)
    : opts_(opts),
      runtime_([&] {
        AsyncRuntime::Options ro;
        ro.num_threads = opts.num_threads;
        ro.max_queue = opts.runtime_max_queue;
        return ro;
      }()) {
  if (per_shard_params.empty()) per_shard_params.emplace_back();
  const size_t n = per_shard_params.size();
  local_to_global_.resize(n);
  shard_stats_.reserve(n);
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shard_stats_.push_back(std::make_unique<ShardStats>());
    EngineOptions eo;
    // Legs bypass per-shard admission (see Submit), so shard engines run
    // as thin snapshot holders on the shared runtime.
    eo.runtime = &runtime_;
    shards_.push_back(
        std::make_unique<QueryEngine>(per_shard_params[s], eo));
  }
}

ShardedQueryEngine::~ShardedQueryEngine() = default;

size_t ShardedQueryEngine::ShardFor(std::string_view video,
                                    size_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t h = kShardSeed ^ 0xcbf29ce484222325ULL;  // seeded FNV-1a, 64-bit
  for (unsigned char c : video) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h % num_shards;
}

uint64_t ShardedQueryEngine::AddVideo(const std::string& name,
                                      const api::SegmentResult& segment,
                                      int* segment_id, size_t* shard_out) {
  const auto start = Clock::now();
  const size_t s = RouteShard(name);
  if (shard_out != nullptr) *shard_out = s;
  MutexLock lock(ingest_mu_);
  {
    // Map this segment's OGs (appended by the shard in local-id order) to
    // the ids an unsharded engine would have assigned.
    WriterLock map_lock(map_mu_);
    std::vector<size_t>& map = local_to_global_[s];
    const size_t count = segment.decomposition.object_graphs.size();
    for (size_t i = 0; i < count; ++i) map.push_back(next_global_id_++);
  }
  shards_[s]->AddVideo(name, segment, segment_id);
  metrics_.ingests.fetch_add(1, std::memory_order_relaxed);
  metrics_.snapshots_published.fetch_add(1, std::memory_order_relaxed);
  metrics_.ingest_latency.Record(MicrosSince(start));
  return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

uint64_t ShardedQueryEngine::AddObjectGraph(
    int segment_id, const std::string& video, const core::Og& og,
    const dist::FeatureScaling& scaling) {
  const auto start = Clock::now();
  const size_t s = RouteShard(video);
  MutexLock lock(ingest_mu_);
  {
    WriterLock map_lock(map_mu_);
    local_to_global_[s].push_back(next_global_id_++);
  }
  shards_[s]->AddObjectGraph(segment_id, video, og, scaling);
  metrics_.ingests.fetch_add(1, std::memory_order_relaxed);
  metrics_.snapshots_published.fetch_add(1, std::memory_order_relaxed);
  metrics_.ingest_latency.Record(MicrosSince(start));
  return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

QueryHandle ShardedQueryEngine::Submit(const api::QuerySpec& spec,
                                       const api::SubmitOptions& opts,
                                       CompletionFn on_complete) {
  const auto start = Clock::now();
  LatencyHistogram* histogram = HistogramFor(&metrics_, spec.kind);

  auto state = std::make_shared<RequestState>();
  state->start = start;
  state->has_deadline = opts.timeout.count() != 0;
  state->deadline = start + opts.timeout;
  state->on_complete = std::move(on_complete);
  state->metrics = &metrics_;
  QueryHandle handle(state);

  // One global admission token per request, however many legs it fans into.
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

  auto g = std::make_shared<Gather>();
  g->state = state;
  g->spec = spec;
  g->generation = Generation();
  g->histogram = histogram;

  // Routing: kActive touches exactly the shard owning the video; everything
  // else fans out.
  std::vector<size_t> targets;
  if (spec.kind == api::QuerySpec::Kind::kActive) {
    targets.push_back(RouteShard(spec.video));
  } else {
    targets.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) targets.push_back(s);
  }
  g->legs_remaining.store(static_cast<int>(targets.size()),
                          std::memory_order_relaxed);

  for (size_t s : targets) {
    shard_stats_[s]->queue_depth.fetch_add(1, std::memory_order_relaxed);
    bool posted = runtime_.Post([this, g, s] { RunLeg(g, s); });
    if (!posted) {
      // The shared submission queue is full. Shed the whole request (first
      // finalize wins; already-posted legs see `finalized` and skip their
      // compute) and retire this leg inline — if it was the last one, the
      // inline retirement also releases the admission token.
      shard_stats_[s]->queue_depth.fetch_sub(1, std::memory_order_relaxed);
      QueryResult rejected;
      rejected.status = StatusCode::kOverloaded;
      rejected.latency_micros = MicrosSince(start);
      state->TryFinalize(std::move(rejected),
                         &ServerMetrics::rejected_overloaded);
      if (g->legs_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  return handle;
}

void ShardedQueryEngine::RunLeg(const std::shared_ptr<Gather>& g,
                                size_t shard) {
  RequestState& st = *g->state;
  ShardStats& ss = *shard_stats_[shard];

  bool do_work = true;
  if (st.cancel_requested.load(std::memory_order_relaxed)) {
    QueryResult cancelled;
    cancelled.status = StatusCode::kCancelled;
    cancelled.latency_micros = MicrosSince(st.start);
    st.TryFinalize(std::move(cancelled));
    do_work = false;
  } else if (st.has_deadline && Clock::now() >= st.deadline) {
    QueryResult expired;
    expired.status = StatusCode::kDeadlineExceeded;
    expired.latency_micros = MicrosSince(st.start);
    st.TryFinalize(std::move(expired), &ServerMetrics::expired_in_queue);
    do_work = false;
  } else if (st.finalized.load(std::memory_order_acquire)) {
    // Waiter gave up / cancel / overload-shed already delivered an
    // outcome; don't burn a worker on an answer nobody will read.
    do_work = false;
  }

  if (do_work) {
    double tau = kInf;
    if (g->spec.kind == api::QuerySpec::Kind::kSimilar) {
      tau = std::bit_cast<double>(g->tau_bits.load(std::memory_order_acquire));
      if (tau < kInf) {
        ss.tau_prune_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ss.queries.fetch_add(1, std::memory_order_relaxed);

    bool failed = false;
    std::vector<api::VideoDatabase::QueryHit> local;
    api::VideoDatabase::QueryStats stats;
    try {
      local = shards_[shard]->ExecuteShardLeg(g->spec, tau, &stats, nullptr);
    } catch (const std::exception&) {
      failed = true;  // typed failure below; no exception leaves the worker
    }

    if (failed) {
      QueryResult io;
      io.status = StatusCode::kIoError;
      io.latency_micros = MicrosSince(st.start);
      st.TryFinalize(std::move(io));
    } else {
      metrics_.distance_computations.fetch_add(stats.distance_computations,
                                               std::memory_order_relaxed);
      metrics_.lb_prunes.fetch_add(stats.lb_prunes,
                                   std::memory_order_relaxed);
      metrics_.early_abandons.fetch_add(stats.early_abandons,
                                        std::memory_order_relaxed);
      {
        // Restore the single-engine id space. Safe under the read lock:
        // the tables are append-only and every local id this snapshot can
        // produce was mapped before the shard insert published.
        ReaderLock map_lock(map_mu_);
        const std::vector<size_t>& map = local_to_global_[shard];
        for (api::VideoDatabase::QueryHit& h : local) h.og_id = map[h.og_id];
      }
      MutexLock merge_lock(g->merge_mu);
      if (g->spec.kind == api::QuerySpec::Kind::kSimilar) {
        for (api::VideoDatabase::QueryHit& h : local) {
          auto pos = std::lower_bound(g->merged.begin(), g->merged.end(), h,
                                      HitBefore);
          g->merged.insert(pos, std::move(h));
        }
        if (g->merged.size() > g->spec.k) g->merged.resize(g->spec.k);
        if (g->merged.size() == g->spec.k) {
          // Publish the tightened bound for legs that start after us.
          g->tau_bits.store(
              std::bit_cast<uint64_t>(g->merged.back().distance),
              std::memory_order_release);
        }
      } else {
        g->merged.insert(g->merged.end(),
                         std::make_move_iterator(local.begin()),
                         std::make_move_iterator(local.end()));
      }
    }
  }

  if (g->legs_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishGather(g);
  }
  ss.queue_depth.fetch_sub(1, std::memory_order_relaxed);
}

void ShardedQueryEngine::FinishGather(const std::shared_ptr<Gather>& g) {
  RequestState& st = *g->state;
  // The request's one admission token, whatever the outcome.
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);

  // An early finalize (cancel / deadline / overload-shed / leg failure)
  // means `merged` may be partial: deliver nothing.
  if (st.finalized.load(std::memory_order_acquire)) return;

  QueryResult result;
  {
    MutexLock merge_lock(g->merge_mu);
    if (g->spec.kind != api::QuerySpec::Kind::kSimilar) {
      // kSimilar is kept sorted incrementally; concatenated range/active
      // legs get the global order here.
      std::sort(g->merged.begin(), g->merged.end(), HitBefore);
    }
    result.hits = std::move(g->merged);
  }
  result.status = StatusCode::kOk;
  result.generation = g->generation;
  result.latency_micros = MicrosSince(st.start);
  g->histogram->Record(result.latency_micros);

  if (st.has_deadline && Clock::now() >= st.deadline) {
    QueryResult expired;
    expired.status = StatusCode::kDeadlineExceeded;
    expired.latency_micros = result.latency_micros;
    st.TryFinalize(std::move(expired), &ServerMetrics::deadline_exceeded);
    return;
  }
  st.TryFinalize(std::move(result));
}

std::string ShardedQueryEngine::MetricsJson() const {
  std::vector<ServerMetrics::ShardScrape> scrape;
  scrape.reserve(shard_stats_.size());
  for (const std::unique_ptr<ShardStats>& ss : shard_stats_) {
    ServerMetrics::ShardScrape one;
    one.queries = ss->queries.load(std::memory_order_relaxed);
    one.tau_prune_hits = ss->tau_prune_hits.load(std::memory_order_relaxed);
    one.queue_depth = ss->queue_depth.load(std::memory_order_relaxed);
    scrape.push_back(one);
  }
  return metrics_.ToJson(Generation(), scrape);
}

}  // namespace strg::server
