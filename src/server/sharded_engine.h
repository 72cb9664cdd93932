#ifndef STRG_SERVER_SHARDED_ENGINE_H_
#define STRG_SERVER_SHARDED_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/query_spec.h"
#include "server/async_runtime.h"
#include "server/metrics.h"
#include "server/query_engine.h"
#include "server/result_cache.h"
#include "util/sync.h"

namespace strg::server {

struct ShardedEngineOptions {
  /// Catalog partitions. 1 reproduces a single QueryEngine exactly.
  size_t num_shards = 4;
  /// Workers in the shared runtime (0 = hardware concurrency).
  size_t num_threads = 0;
  /// Max *requests* (not legs) admitted but not finished, across all
  /// shards — the global admission bound that turns overload into typed
  /// kOverloaded rejections.
  size_t max_pending = 256;
  /// Shared submission-queue bound for the per-shard leg tasks.
  size_t runtime_max_queue = 4096;
  /// Top-level result cache (whole merged answers; shard caches are
  /// bypassed by scatter legs — see Submit).
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
};

/// Scatter-gather serving over a hash-partitioned catalog.
///
/// Partitioning: videos hash by name onto N shards (ShardFor), each shard
/// a full QueryEngine with its own copy-on-write snapshot chain. Ingest
/// routes each write to its video's shard, where the publish path-copies
/// the touched root and cluster (as in the unsharded engine), and a
/// temporal (kActive) query scans 1/N of the records.
///
/// Query path: Submit checks the top-level result cache, takes one global
/// admission token, then fans the request out as per-shard leg tasks on
/// the shared AsyncRuntime. kNN legs read the gather's running worst-of-k
/// distance (tau) before executing and seed the shard search with it, so
/// shards that start after others have finished prune against the best
/// global answer so far — the scatter-gather counterpart of the paper's
/// single-index branch-and-bound. The last leg to finish merges by
/// (distance, global og id), fills the cache, and finalizes the request.
///
/// Answers are bit-identical to an unsharded engine fed the same writes in
/// the same order (assuming distinct distances; exact ties order by global
/// og id on both sides): tau only ever tightens below the true k-th
/// distance, so no global top-k member is ever pruned, and the per-shard
/// local->global id remap restores the single-engine id space.
class ShardedQueryEngine {
 public:
  explicit ShardedQueryEngine(index::StrgIndexParams params = {},
                              ShardedEngineOptions opts = {});
  /// Per-shard index parameters (size() becomes the shard count) — lets
  /// tests give each shard its own paged leaf store.
  ShardedQueryEngine(std::vector<index::StrgIndexParams> per_shard_params,
                     ShardedEngineOptions opts);

  ShardedQueryEngine(const ShardedQueryEngine&) = delete;
  ShardedQueryEngine& operator=(const ShardedQueryEngine&) = delete;

  /// Drains in-flight legs (the runtime is destroyed first), then the
  /// shard engines.
  ~ShardedQueryEngine();

  /// Stable video -> shard routing (seeded FNV over the name). Exposed so
  /// tools and tests can predict placement.
  static size_t ShardFor(std::string_view video, size_t num_shards);

  // ---- Writers (routed to the owning shard; serialized globally). ----

  /// Indexes a segment on video `name`'s shard. Returns the new *global*
  /// generation; `*segment_id` (optional) is the shard-local segment id —
  /// valid for AddObjectGraph together with the same video name;
  /// `*shard_out` (optional) receives the owning shard.
  uint64_t AddVideo(const std::string& name, const api::SegmentResult& segment,
                    int* segment_id = nullptr, size_t* shard_out = nullptr)
      STRG_EXCLUDES(ingest_mu_);

  /// Streams one more OG into an existing segment on `video`'s shard.
  uint64_t AddObjectGraph(int segment_id, const std::string& video,
                          const core::Og& og,
                          const dist::FeatureScaling& scaling)
      STRG_EXCLUDES(ingest_mu_);

  // ---- Readers (global admission, scatter-gather execution). ----

  /// Submits the request: top-level cache fast path, one global admission
  /// token, then one leg task per participating shard (all shards for
  /// kSimilar/kRange; the owning shard for kActive; exactly
  /// opts.shard_hint when set — the hint restricts the scatter, so the
  /// answer covers only that shard). Same handle/callback contract as
  /// QueryEngine::Submit.
  QueryHandle Submit(const api::QuerySpec& spec, const QueryOptions& opts = {},
                     CompletionFn on_complete = nullptr);

  QueryResult Query(const api::QuerySpec& spec, const QueryOptions& opts = {}) {
    return Submit(spec, opts).Wait();
  }

  // ---- Introspection. ----

  uint64_t Generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  size_t NumShards() const { return shards_.size(); }
  /// Direct access to one shard engine (tests; read-only use).
  const QueryEngine& shard(size_t s) const { return *shards_[s]; }

  const ServerMetrics& metrics() const { return metrics_; }
  /// Global registry + per-shard breakdown ("shards" array).
  std::string MetricsJson() const;

  AsyncRuntime& runtime() { return runtime_; }

 private:
  /// Per-shard serving counters (relaxed; scraped into
  /// ServerMetrics::ShardScrape by MetricsJson). unique_ptr elements
  /// because atomics are not movable.
  struct ShardStats {
    std::atomic<uint64_t> queries{0};         ///< legs executed
    std::atomic<uint64_t> tau_prune_hits{0};  ///< legs seeded with finite tau
    std::atomic<int64_t> queue_depth{0};      ///< legs posted, not finished
  };

  /// Scatter-gather rendezvous of one request (defined in the .cc).
  struct Gather;

  size_t RouteShard(std::string_view video) const {
    return ShardFor(video, shards_.size());
  }
  /// One shard leg, on a runtime worker: skip checks, tau read, shard
  /// search, id remap, merge; the last leg finalizes the request.
  void RunLeg(const std::shared_ptr<Gather>& g, size_t shard);
  /// Completion by the last leg: sort/truncate, cache fill, finalize.
  void FinishGather(const std::shared_ptr<Gather>& g);

  ShardedEngineOptions opts_;
  ServerMetrics metrics_;
  ShardedResultCache cache_;
  /// Global publish counter: every routed write bumps it by one, so it
  /// matches the generation an unsharded engine fed the same write
  /// sequence would report.
  std::atomic<uint64_t> generation_{0};

  /// Serializes writers across shards: global og ids are assigned in call
  /// order (the single-engine id space), which requires the id-assign +
  /// shard-insert window to be atomic. Queries never take this.
  Mutex ingest_mu_{LockRank::kIngestSharded};
  /// Guards the id remap tables. Writers append under ingest_mu_ + write
  /// lock; gather legs remap under read lock. Tables are append-only and a
  /// shard snapshot's local ids are always < the table length at remap
  /// time (the mapping is appended before the shard insert publishes).
  mutable SharedMutex map_mu_{LockRank::kShardMap};
  /// local_to_global_[s][local_og_id] == global og id.
  std::vector<std::vector<size_t>> local_to_global_ STRG_GUARDED_BY(map_mu_);
  size_t next_global_id_ STRG_GUARDED_BY(map_mu_) = 0;

  std::vector<std::unique_ptr<ShardStats>> shard_stats_;
  std::vector<std::unique_ptr<QueryEngine>> shards_;
  /// Declared last: destroyed first, draining posted legs while the shard
  /// engines, maps, and metrics they touch are all still alive. Shard
  /// engines execute on this runtime (EngineOptions::runtime).
  AsyncRuntime runtime_;
};

}  // namespace strg::server

#endif  // STRG_SERVER_SHARDED_ENGINE_H_
