// The end-to-end benchmark's only contact with the serving engines.
//
// Every call the harness makes into a server front-end — open, ingest,
// submit, snapshot introspection, counters, and the traced run's shadow
// re-executions on a snapshot — goes through this file, so a change to the
// engine API needs a change here and nowhere else in the benchmark.

#ifndef STRG_BENCH_E2E_ENGINE_ADAPTER_H_
#define STRG_BENCH_E2E_ENGINE_ADAPTER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "api/query_spec.h"
#include "api/status.h"
#include "core/pipeline.h"
#include "core/video_database.h"
#include "index/strg_index.h"
#include "server/durable_engine.h"
#include "server/query_engine.h"
#include "server/sharded_engine.h"
#include "storage/pager/storage_params.h"
#include "util/thread_pool.h"

namespace strg::e2e {

/// Which serving front-end a workload runs on.
enum class Frontend {
  kSharded,  ///< ShardedQueryEngine: in RAM, scatter-gather over shards
  kDurable,  ///< DurableQueryEngine: WAL + snapshots, optional paged leaves
};

/// Shape every workload shares.
constexpr size_t kShards = 4;          ///< kSharded
constexpr size_t kWorkers = 4;         ///< query worker threads
constexpr size_t kCompactEvery = 256;  ///< kDurable: WAL records per snapshot

struct EngineConfig {
  Frontend frontend = Frontend::kDurable;
  std::string dir;                 ///< kDurable: WAL / snapshot / page files
  storage::StorageParams storage;  ///< kDurable: paged leaf store when set
  /// Fans index builds and leaf splits out (not owned; may be null).
  ThreadPool* build_pool = nullptr;
};

using Snapshots = std::vector<std::shared_ptr<const server::Snapshot>>;

/// Scrape of the engine's own counters (monotone unless noted).
struct Counters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  int64_t max_queue_depth = 0;  ///< high-water mark since open
  uint64_t legs = 0;            ///< scatter legs executed (kSharded)
  uint64_t tau_legs = 0;        ///< legs seeded with a finite tau (kSharded)
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t compactions = 0;
  storage::BufferCacheStats pager;  ///< zero unless paged
};

/// Cost of re-running one read on a snapshot, summed over shards.
struct ShadowRead {
  double core_us = 0.0;   ///< api::VideoDatabase::Query
  double index_us = 0.0;  ///< index::StrgIndex::Knn / RangeSearch
  uint64_t dp_evals = 0;
  uint64_t lb_prunes = 0;
  uint64_t early_abandons = 0;
};

/// Cost of re-running one write on a clone of the pre-write snapshot.
struct ShadowWrite {
  double clone_us = 0.0;  ///< api::VideoDatabase::Clone (the publish copy)
  double apply_us = 0.0;  ///< the insert itself, clone time excluded
};

namespace internal {
inline double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace internal

class Engine {
 public:
  static api::StatusOr<std::unique_ptr<Engine>> Open(const EngineConfig& cfg) {
    std::unique_ptr<Engine> e(new Engine(cfg));
    index::StrgIndexParams params;
    params.pool = cfg.build_pool;
    params.cluster_params.pool = cfg.build_pool;
    if (cfg.frontend == Frontend::kSharded) {
      server::ShardedEngineOptions opts;
      opts.num_shards = kShards;
      opts.num_threads = kWorkers;
      e->sharded_ =
          std::make_unique<server::ShardedQueryEngine>(params, opts);
      return e;
    }
    server::DurableEngineOptions opts;
    opts.compact_every = kCompactEvery;
    opts.engine.num_threads = kWorkers;
    opts.storage = cfg.storage;
    auto opened = server::DurableQueryEngine::Open(cfg.dir, params, opts);
    if (!opened.ok()) return opened.status();
    e->durable_ = std::move(opened).value();
    return e;
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- Writes ----

  api::Status AddVideo(const std::string& name,
                       const api::SegmentResult& segment, int* segment_id) {
    if (sharded_ != nullptr) {
      sharded_->AddVideo(name, segment, segment_id);
      return api::Status::Ok();
    }
    auto gen = durable_->AddVideo(name, segment, segment_id);
    return gen.ok() ? api::Status::Ok() : gen.status();
  }

  api::Status AddObjectGraph(int segment_id, const std::string& video,
                             const core::Og& og,
                             const dist::FeatureScaling& scaling) {
    if (sharded_ != nullptr) {
      sharded_->AddObjectGraph(segment_id, video, og, scaling);
      return api::Status::Ok();
    }
    auto gen = durable_->AddObjectGraph(segment_id, video, og, scaling);
    return gen.ok() ? api::Status::Ok() : gen.status();
  }

  // ---- Reads ----

  /// Open-loop entry: returns at once; `done` fires exactly once.
  void Submit(const api::QuerySpec& spec, server::CompletionFn done) {
    if (sharded_ != nullptr) {
      sharded_->Submit(spec, {}, std::move(done));
    } else {
      durable_->Submit(spec, {}, std::move(done));
    }
  }

  /// Closed-loop entry: blocks until the answer is in.
  server::QueryResult Query(const api::QuerySpec& spec) {
    return sharded_ != nullptr ? sharded_->Query(spec) : durable_->Query(spec);
  }

  // ---- Introspection ----

  /// The published snapshot of every shard (one for the durable engine).
  Snapshots CurrentSnapshots() const {
    Snapshots out;
    if (sharded_ != nullptr) {
      for (size_t s = 0; s < sharded_->NumShards(); ++s) {
        out.push_back(sharded_->shard(s).snapshot());
      }
    } else {
      out.push_back(durable_->engine().snapshot());
    }
    return out;
  }

  /// Position in CurrentSnapshots() of the shard that owns `video`.
  size_t ShardOf(const std::string& video) const {
    return sharded_ != nullptr
               ? server::ShardedQueryEngine::ShardFor(video,
                                                      sharded_->NumShards())
               : 0;
  }

  size_t NumObjectGraphs() const {
    size_t n = 0;
    for (const auto& snap : CurrentSnapshots()) n += snap->db.NumObjectGraphs();
    return n;
  }

  Counters Scrape() const {
    Counters c;
    const server::ServerMetrics& m =
        sharded_ != nullptr ? sharded_->metrics() : durable_->engine().metrics();
    c.cache_hits = m.cache_hits.load(std::memory_order_relaxed);
    c.cache_misses = m.cache_misses.load(std::memory_order_relaxed);
    c.max_queue_depth = m.max_queue_depth.load(std::memory_order_relaxed);
    c.wal_appends = m.wal_appends.load(std::memory_order_relaxed);
    c.wal_bytes = m.wal_synced_bytes.load(std::memory_order_relaxed);
    c.wal_syncs = m.wal_syncs.load(std::memory_order_relaxed);
    c.compactions = m.wal_compactions.load(std::memory_order_relaxed);
    if (sharded_ != nullptr) {
      // Per-shard leg counters are only exported through the metrics JSON.
      const std::string json = sharded_->MetricsJson();
      c.legs = SumJsonField(json, "\"queries\":");
      c.tau_legs = SumJsonField(json, "\"tau_prune_hits\":");
    } else if (durable_->paged_store() != nullptr) {
      c.pager = durable_->paged_store()->cache_stats();
    }
    return c;
  }

  /// Index structure merged over shards (clustering cost counters summed,
  /// mean covering radius weighted by cluster count).
  index::StrgIndex::Stats IndexStats() const {
    index::StrgIndex::Stats total;
    double radius_sum = 0.0;
    for (const auto& snap : CurrentSnapshots()) {
      index::StrgIndex::Stats s = snap->db.index().ComputeStats();
      total.segments += s.segments;
      total.clusters += s.clusters;
      total.ogs += s.ogs;
      total.max_leaf = std::max(total.max_leaf, s.max_leaf);
      total.max_covering_radius =
          std::max(total.max_covering_radius, s.max_covering_radius);
      radius_sum += s.mean_covering_radius * static_cast<double>(s.clusters);
      total.clustering.Merge(s.clustering);
    }
    if (total.clusters != 0) {
      total.mean_covering_radius =
          radius_sum / static_cast<double>(total.clusters);
    }
    return total;
  }

  /// Bytes the durable engine keeps on disk (WAL, snapshots, page files);
  /// zero for the in-RAM front-end.
  uint64_t DiskBytes() const {
    if (durable_ == nullptr) return 0;
    uint64_t bytes = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(cfg_.dir, ec)) {
      std::error_code size_ec;
      const uint64_t size = entry.file_size(size_ec);
      if (!size_ec) bytes += size;
    }
    return bytes;
  }

  /// Paged leaf store size and cache budget in bytes; {0, 0} unless paged.
  std::pair<uint64_t, uint64_t> PagedBytes() const {
    if (durable_ == nullptr || durable_->paged_store() == nullptr) {
      return {0, 0};
    }
    storage::PagedRecordStore* store = durable_->paged_store();
    return {store->file().num_pages() * store->file().page_size(),
            store->cache()->resident_bytes()};
  }

  /// What recovery did when this engine opened (durable only).
  const server::RecoveryStats* Recovery() const {
    return durable_ != nullptr ? &durable_->recovery() : nullptr;
  }

  // ---- Shadow re-executions for the traced run ----

  /// Re-runs `spec` on each snapshot through VideoDatabase::Query and
  /// through the index directly. Times are the longest shard leg (legs run
  /// in parallel when served); counts are summed. kNN legs run unseeded
  /// (tau = +inf), so the counts depend on the snapshot and query only.
  static ShadowRead ShadowQuery(const Snapshots& snaps,
                                const api::QuerySpec& spec) {
    ShadowRead r;
    for (const auto& snap : snaps) {
      api::VideoDatabase::QueryStats stats;
      auto t0 = std::chrono::steady_clock::now();
      (void)snap->db.Query(spec, &stats);
      r.core_us = std::max(r.core_us, internal::MicrosSince(t0));
      r.dp_evals += stats.distance_computations;
      r.lb_prunes += stats.lb_prunes;
      r.early_abandons += stats.early_abandons;
      t0 = std::chrono::steady_clock::now();
      if (spec.kind == api::QuerySpec::Kind::kSimilar) {
        (void)snap->db.index().Knn(spec.sequence, spec.k);
      } else {
        (void)snap->db.index().RangeSearch(spec.sequence, spec.radius);
      }
      r.index_us = std::max(r.index_us, internal::MicrosSince(t0));
    }
    return r;
  }

  /// Clones `snap` (the copy every publish makes) and applies the write to
  /// the clone. Paged mode appends the clone's leaf record to the shared
  /// store; it is never referenced and goes when the store is rebuilt.
  static ShadowWrite ShadowAddObjectGraph(const server::Snapshot& snap,
                                          int segment_id,
                                          const std::string& video,
                                          const core::Og& og,
                                          const dist::FeatureScaling& scaling) {
    ShadowWrite w;
    auto t0 = std::chrono::steady_clock::now();
    api::VideoDatabase clone = snap.db.Clone();
    w.clone_us = internal::MicrosSince(t0);
    t0 = std::chrono::steady_clock::now();
    clone.AddObjectGraph(segment_id, video, og, scaling);
    w.apply_us = internal::MicrosSince(t0);
    return w;
  }

  static ShadowWrite ShadowAddVideo(const server::Snapshot& snap,
                                    const std::string& name,
                                    const api::SegmentResult& segment) {
    ShadowWrite w;
    auto t0 = std::chrono::steady_clock::now();
    api::VideoDatabase clone = snap.db.Clone();
    w.clone_us = internal::MicrosSince(t0);
    t0 = std::chrono::steady_clock::now();
    clone.AddVideo(name, segment);
    w.apply_us = internal::MicrosSince(t0);
    return w;
  }

 private:
  explicit Engine(EngineConfig cfg) : cfg_(std::move(cfg)) {}

  static uint64_t SumJsonField(const std::string& json, const char* key) {
    const size_t shards = json.find("\"shards\":[");
    if (shards == std::string::npos) return 0;
    const size_t end = json.find(']', shards);
    const std::string needle = key;
    uint64_t sum = 0;
    for (size_t pos = json.find(needle, shards);
         pos != std::string::npos && pos < end;
         pos = json.find(needle, pos + needle.size())) {
      sum += std::stoull(json.substr(pos + needle.size(), 24));
    }
    return sum;
  }

  EngineConfig cfg_;
  std::unique_ptr<server::ShardedQueryEngine> sharded_;
  std::unique_ptr<server::DurableQueryEngine> durable_;
};

}  // namespace strg::e2e

#endif  // STRG_BENCH_E2E_ENGINE_ADAPTER_H_
