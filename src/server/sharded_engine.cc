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
  uint64_t generation = 0;  ///< global generation at submission

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
    : opts_(opts), pool_(opts.num_threads) {
  if (per_shard_params.empty()) per_shard_params.emplace_back();
  const size_t n = per_shard_params.size();
  local_to_global_.resize(n);
  shard_stats_.reserve(n);
  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shard_stats_.push_back(std::make_unique<ShardStats>());
    shards_.push_back(std::make_unique<SnapshotChain>(per_shard_params[s]));
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
  metrics_.NotePublish(MicrosSince(start));
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
  metrics_.NotePublish(MicrosSince(start));
  return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

QueryHandle ShardedQueryEngine::Submit(const api::QuerySpec& spec,
                                       const api::SubmitOptions& opts,
                                       CompletionFn on_complete) {
  auto state = std::make_shared<RequestState>(spec, opts,
                                              std::move(on_complete),
                                              &metrics_);
  // One global admission token per request, however many legs it fans into.
  if (!state->Admit(opts_.max_pending)) return QueryHandle(std::move(state));

  auto g = std::make_shared<Gather>();
  g->state = state;
  g->generation = Generation();

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
    pool_.Post([this, g, s] { RunLeg(g, s); });
  }
  return QueryHandle(std::move(state));
}

void ShardedQueryEngine::RunLeg(const std::shared_ptr<Gather>& g,
                                size_t shard) {
  RequestState& st = *g->state;
  ShardStats& ss = *shard_stats_[shard];

  if (st.StartRun()) {
    double tau = kInf;
    if (st.spec.kind == api::QuerySpec::Kind::kSimilar) {
      tau = std::bit_cast<double>(g->tau_bits.load(std::memory_order_acquire));
      if (tau < kInf) {
        ss.tau_prune_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ss.queries.fetch_add(1, std::memory_order_relaxed);
    try {
      Merge(g.get(), shard,
            st.Execute(shards_[shard]->snapshot()->db, tau));
    } catch (const std::exception&) {
      // Typed failure; no exception leaves the worker. The last leg sees
      // the request finalized and delivers nothing more.
      st.TryFinalize(StatusCode::kIoError);
    }
  }

  if (g->legs_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishGather(*g);
  }
  ss.queue_depth.fetch_sub(1, std::memory_order_relaxed);
}

void ShardedQueryEngine::Merge(
    Gather* g, size_t shard,
    std::vector<api::VideoDatabase::QueryHit> local) {
  {
    // Restore the single-engine id space. Safe under the read lock: the
    // tables are append-only and every local id this snapshot can produce
    // was mapped before the shard insert published.
    ReaderLock map_lock(map_mu_);
    const std::vector<size_t>& map = local_to_global_[shard];
    for (api::VideoDatabase::QueryHit& h : local) h.og_id = map[h.og_id];
  }
  const api::QuerySpec& spec = g->state->spec;
  MutexLock merge_lock(g->merge_mu);
  if (spec.kind == api::QuerySpec::Kind::kSimilar) {
    for (api::VideoDatabase::QueryHit& h : local) {
      auto pos = std::lower_bound(g->merged.begin(), g->merged.end(), h,
                                  HitBefore);
      g->merged.insert(pos, std::move(h));
    }
    if (g->merged.size() > spec.k) g->merged.resize(spec.k);
    if (g->merged.size() == spec.k) {
      // Publish the tightened bound for legs that start after us.
      g->tau_bits.store(std::bit_cast<uint64_t>(g->merged.back().distance),
                        std::memory_order_release);
    }
  } else {
    g->merged.insert(g->merged.end(), std::make_move_iterator(local.begin()),
                     std::make_move_iterator(local.end()));
  }
}

void ShardedQueryEngine::FinishGather(Gather& g) {
  RequestState& st = *g.state;
  // The request's one admission token, whatever the outcome.
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);

  // An early finalize (cancel / deadline / leg failure) means `merged` may
  // be partial: deliver nothing.
  if (st.finalized.load(std::memory_order_acquire)) return;

  QueryResult result;
  {
    MutexLock merge_lock(g.merge_mu);
    if (st.spec.kind != api::QuerySpec::Kind::kSimilar) {
      // kSimilar is kept sorted incrementally; concatenated range/active
      // legs get the global order here.
      std::sort(g.merged.begin(), g.merged.end(), HitBefore);
    }
    result.hits = std::move(g.merged);
  }
  result.generation = g.generation;
  st.Complete(std::move(result));
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
