// ctest-labels: server
//
// ShardedQueryEngine contract tests: answers bit-identical to an unsharded
// QueryEngine fed the same write sequence (1/2/4/8 shards, in-RAM and
// paged), tau scatter-pruning stays exact, overload sheds typed, a
// follow-up submitted during destruction still runs, and the
// cancel/deadline/writer race is clean under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/query_engine.h"
#include "server/sharded_engine.h"
#include "storage/pager/paged_record_store.h"
#include "storage/pager/storage_params.h"
#include "synth/generator.h"

namespace strg::server {
namespace {

/// Multi-video fixture over the synthetic dataset: `num_videos` named
/// segments (round-robin OG assignment) plus a stream of extra OGs for
/// AddObjectGraph, all with 100x100 geometry so SegmentResult::Scaling()
/// == synth::SynthScaling() and probes are directly comparable.
struct MultiFixture {
  std::vector<std::string> names;
  std::vector<api::SegmentResult> segments;
  struct StreamOg {
    size_t video = 0;
    core::Og og;
  };
  std::vector<StreamOg> stream;
  std::vector<dist::Sequence> queries;
};

MultiFixture MakeMultiFixture(size_t num_videos, size_t base_per_video,
                              uint64_t seed) {
  synth::SynthParams sp;
  sp.items_per_cluster = 1;  // one OG per pattern -> 48 total
  sp.seed = seed;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);

  MultiFixture fx;
  fx.names.reserve(num_videos);
  fx.segments.resize(num_videos);
  for (size_t v = 0; v < num_videos; ++v) {
    fx.names.push_back("video_" + std::to_string(v));
    fx.segments[v].frame_width = 100;
    fx.segments[v].frame_height = 100;
  }
  const size_t base_total = num_videos * base_per_video;
  for (size_t i = 0; i < ds.ogs.size(); ++i) {
    const core::Og& og = ds.ogs[i];
    const size_t v = i % num_videos;
    if (i < base_total) {
      fx.segments[v].decomposition.object_graphs.push_back(og);
    } else {
      fx.stream.push_back({v, og});
    }
  }
  for (size_t v = 0; v < num_videos; ++v) {
    size_t frames = 1;
    for (const core::Og& og : fx.segments[v].decomposition.object_graphs) {
      frames = std::max(frames,
                        static_cast<size_t>(og.start_frame) + og.Length());
    }
    fx.segments[v].num_frames = frames;
  }
  fx.queries = ds.Sequences(synth::SynthScaling());
  return fx;
}

index::StrgIndexParams FastIndex() {
  index::StrgIndexParams p;
  p.num_clusters = 4;
  p.cluster_params.max_iterations = 4;
  return p;
}

/// Feeds the identical write sequence into either engine flavour — the
/// global og-id space both sides must agree on is defined by this order.
template <typename Engine>
std::vector<int> FeedAll(Engine& engine, const MultiFixture& fx) {
  std::vector<int> segment_ids(fx.names.size(), -1);
  for (size_t v = 0; v < fx.names.size(); ++v) {
    engine.AddVideo(fx.names[v], fx.segments[v], &segment_ids[v]);
  }
  for (const MultiFixture::StreamOg& s : fx.stream) {
    engine.AddObjectGraph(segment_ids[s.video], fx.names[s.video], s.og,
                          synth::SynthScaling());
  }
  return segment_ids;
}

void ExpectSameHits(const std::vector<api::VideoDatabase::QueryHit>& want,
                    const std::vector<api::VideoDatabase::QueryHit>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("hit " + std::to_string(i));
    EXPECT_EQ(want[i].video, got[i].video);
    EXPECT_EQ(want[i].og_id, got[i].og_id);
    EXPECT_EQ(want[i].start_frame, got[i].start_frame);
    EXPECT_EQ(want[i].length, got[i].length);
    EXPECT_EQ(want[i].distance, got[i].distance);  // bit-identical
  }
}

TEST(ShardedEngine, ShardForIsStableAndSpreads) {
  for (size_t n : {1u, 2u, 4u, 8u}) {
    std::vector<bool> used(n, false);
    for (int i = 0; i < 64; ++i) {
      std::string name = "clip_" + std::to_string(i);
      size_t s = ShardedQueryEngine::ShardFor(name, n);
      ASSERT_LT(s, n);
      EXPECT_EQ(s, ShardedQueryEngine::ShardFor(name, n));  // stable
      used[s] = true;
    }
    // 64 names over <= 8 shards: every shard should own something.
    for (size_t s = 0; s < n; ++s) EXPECT_TRUE(used[s]) << "shard " << s;
  }
  // Pinned placement (seeded FNV-1a): the e2e benchmark's four shards get
  // their videos "cam-0".."cam-15" from this, so a changed hash would
  // silently change each shard's catalog.
  const size_t kCamShard[16] = {3, 0, 1, 2, 3, 0, 1, 2,
                                3, 0, 0, 3, 2, 1, 0, 3};
  for (size_t i = 0; i < 16; ++i) {
    const std::string name = "cam-" + std::to_string(i);
    EXPECT_EQ(ShardedQueryEngine::ShardFor(name, 4), kCamShard[i]) << name;
  }
}

TEST(ShardedEngine, AnswersMatchUnshardedAcrossShardCounts) {
  MultiFixture fx = MakeMultiFixture(/*num_videos=*/6, /*base_per_video=*/5,
                                     /*seed=*/11);

  EngineOptions single_opts;
  single_opts.num_threads = 2;
  QueryEngine baseline(FastIndex(), single_opts);
  FeedAll(baseline, fx);

  // A radius both sides share, picked to return a mid-size answer set.
  const dist::Sequence& probe0 = fx.queries[0];
  auto wide = baseline.Query(api::QuerySpec::Similar(probe0, 8));
  ASSERT_EQ(wide.status, StatusCode::kOk);
  ASSERT_GE(wide.hits.size(), 6u);
  const double radius = wide.hits[5].distance * 1.0001;

  for (size_t n : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    ShardedEngineOptions so;
    so.num_shards = n;
    so.num_threads = 4;
    ShardedQueryEngine sharded(FastIndex(), so);
    FeedAll(sharded, fx);
    ASSERT_EQ(sharded.Generation(), baseline.Generation());

    for (size_t q = 0; q < 12; ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      const dist::Sequence& probe = fx.queries[q];

      api::QuerySpec knn = api::QuerySpec::Similar(probe, 5);
      QueryResult want = baseline.Query(knn);
      QueryResult got = sharded.Query(knn);
      ASSERT_EQ(got.status, StatusCode::kOk);
      EXPECT_EQ(got.generation, want.generation);
      ExpectSameHits(want.hits, got.hits);

      api::QuerySpec range = api::QuerySpec::WithinRadius(probe, radius);
      ExpectSameHits(baseline.Query(range).hits, sharded.Query(range).hits);
    }
    for (size_t v = 0; v < fx.names.size(); ++v) {
      api::QuerySpec active = api::QuerySpec::Active(fx.names[v], 0, 1 << 28);
      ExpectSameHits(baseline.Query(active).hits,
                     sharded.Query(active).hits);
    }
  }
}

TEST(ShardedEngine, TauPruningFiresAndStaysExact) {
  MultiFixture fx = MakeMultiFixture(/*num_videos=*/8, /*base_per_video=*/4,
                                     /*seed=*/23);
  EngineOptions single_opts;
  QueryEngine baseline(FastIndex(), single_opts);
  FeedAll(baseline, fx);

  ShardedEngineOptions so;
  so.num_shards = 4;
  so.num_threads = 1;  // legs serialize: later legs see the running tau
  ShardedQueryEngine sharded(FastIndex(), so);
  FeedAll(sharded, fx);

  for (size_t q = 0; q < fx.queries.size(); ++q) {
    api::QuerySpec knn = api::QuerySpec::Similar(fx.queries[q], 3);
    ExpectSameHits(baseline.Query(knn).hits, sharded.Query(knn).hits);
  }

  // tau_prune_hits must have fired: with one worker the legs of each
  // query run in sequence, so later legs start with a finite bound. The
  // per-shard counters are exposed through the JSON scrape.
  uint64_t pruned = 0;
  std::string json = sharded.MetricsJson();
  EXPECT_NE(json.find("\"shards\":[{"), std::string::npos);
  size_t pos = 0;
  while ((pos = json.find("\"tau_prune_hits\":", pos)) != std::string::npos) {
    pos += sizeof("\"tau_prune_hits\":") - 1;
    pruned += std::strtoull(json.c_str() + pos, nullptr, 10);
  }
  EXPECT_GT(pruned, 0u);
}

TEST(ShardedEngine, PagedShardsMatchInRamUnsharded) {
  MultiFixture fx = MakeMultiFixture(/*num_videos=*/6, /*base_per_video=*/5,
                                     /*seed=*/31);
  QueryEngine baseline(FastIndex(), EngineOptions{});
  FeedAll(baseline, fx);

  constexpr size_t kShards = 4;
  storage::StorageParams store_params;
  store_params.paged = true;
  store_params.page_size = 256;
  store_params.cache_bytes = 16 * 256;
  store_params.cache_shards = 2;

  std::vector<std::string> paths;
  std::vector<std::unique_ptr<storage::PagedRecordStore>> stores;
  std::vector<index::StrgIndexParams> per_shard;
  for (size_t s = 0; s < kShards; ++s) {
    paths.push_back(::testing::TempDir() + "/sharded_leaf_" +
                    std::to_string(s) + ".pages");
    std::remove(paths.back().c_str());
    stores.push_back(
        storage::PagedRecordStore::Create(paths.back(), store_params)
            .value());
    index::StrgIndexParams ip = FastIndex();
    ip.paged_store = stores.back().get();
    per_shard.push_back(ip);
  }
  {
    ShardedEngineOptions so;
    so.num_shards = kShards;
    so.num_threads = 4;
    ShardedQueryEngine sharded(per_shard, so);
    FeedAll(sharded, fx);

    for (size_t q = 0; q < 8; ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      api::QuerySpec knn = api::QuerySpec::Similar(fx.queries[q], 5);
      ExpectSameHits(baseline.Query(knn).hits, sharded.Query(knn).hits);
    }
    // The paged path actually ran out-of-core somewhere.
    uint64_t traffic = 0;
    for (const auto& store : stores) {
      traffic += store->cache_stats().hits + store->cache_stats().misses;
    }
    EXPECT_GT(traffic, 0u);
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

// The deadlock-freedom stress target (DESIGN.md §15): drives the DEEPEST
// legal lock chains concurrently — a live writer walking
// kIngestSharded -> kShardMap / kEngineWriter -> kRecordStore /
// kBufferCache / kSnapshot / kThreadPool against async clients walking
// kRequestState / kGatherMerge and paged reads taking kRecordStore (a
// tail-page record) or kBufferCache (a sealed page). Under
// STRG_SANITIZE=thread this must be race-free; under
// STRG_DEADLOCK_CHECK=ON every acquisition on every one of these paths is
// checked against the rank hierarchy.
TEST(ShardedEngine, DeepLockChainStressWithLiveWriter) {
  MultiFixture fx = MakeMultiFixture(/*num_videos=*/6, /*base_per_video=*/4,
                                     /*seed=*/67);
  constexpr size_t kShards = 4;
  storage::StorageParams store_params;
  store_params.paged = true;
  store_params.page_size = 256;
  store_params.cache_bytes = 16 * 256;  // tiny: force evictions mid-query
  store_params.cache_shards = 2;

  std::vector<std::string> paths;
  std::vector<std::unique_ptr<storage::PagedRecordStore>> stores;
  std::vector<index::StrgIndexParams> per_shard;
  for (size_t s = 0; s < kShards; ++s) {
    paths.push_back(::testing::TempDir() + "/deep_chain_" +
                    std::to_string(s) + ".pages");
    std::remove(paths.back().c_str());
    stores.push_back(
        storage::PagedRecordStore::Create(paths.back(), store_params)
            .value());
    index::StrgIndexParams ip = FastIndex();
    ip.paged_store = stores.back().get();
    per_shard.push_back(ip);
  }
  {
    ShardedEngineOptions so;
    so.num_shards = kShards;
    so.num_threads = 4;
    so.max_pending = 64;
    ShardedQueryEngine sharded(per_shard, so);
    std::vector<int> segment_ids = FeedAll(sharded, fx);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const MultiFixture::StreamOg& s = fx.stream[i % fx.stream.size()];
        sharded.AddObjectGraph(segment_ids[s.video], fx.names[s.video], s.og,
                               synth::SynthScaling());
        ++i;
      }
    });

    constexpr size_t kClients = 3;
    constexpr size_t kPerClient = 24;
    std::atomic<size_t> answered{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < kPerClient; ++i) {
          api::QuerySpec spec = api::QuerySpec::Similar(
              fx.queries[(c * kPerClient + i) % fx.queries.size()], 4);
          QueryHandle h = sharded.Submit(spec, {}, [](const QueryResult&) {});
          QueryResult r = h.Wait();  // kRequestState rendezvous
          if (r.status == StatusCode::kOk) {
            answered.fetch_add(1, std::memory_order_relaxed);
            EXPECT_LE(r.hits.size(), 4u);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    stop.store(true, std::memory_order_relaxed);
    writer.join();

    EXPECT_GT(answered.load(), 0u);
    // The paged leg of the chain genuinely ran: pages moved through the
    // caches while the storm was on.
    uint64_t traffic = 0;
    for (const auto& store : stores) {
      traffic += store->cache_stats().hits + store->cache_stats().misses;
    }
    EXPECT_GT(traffic, 0u);

    // Still consistent afterwards.
    QueryResult after =
        sharded.Query(api::QuerySpec::Similar(fx.queries[0], 3));
    EXPECT_EQ(after.status, StatusCode::kOk);
    EXPECT_EQ(after.hits.size(), 3u);
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

TEST(ShardedEngine, OverloadShedsTypedInsteadOfQueueing) {
  MultiFixture fx = MakeMultiFixture(/*num_videos=*/4, /*base_per_video=*/4,
                                     /*seed=*/41);
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.num_threads = 2;
  so.max_pending = 0;  // admit nothing
  ShardedQueryEngine sharded(FastIndex(), so);
  FeedAll(sharded, fx);

  QueryResult r = sharded.Query(api::QuerySpec::Similar(fx.queries[0], 5));
  EXPECT_EQ(r.status, StatusCode::kOverloaded);
  EXPECT_TRUE(r.hits.empty());
  EXPECT_EQ(r.generation, 0u);
  EXPECT_GE(sharded.metrics().rejected_overloaded.load(), 1u);
}

// A completion callback that submits a follow-up request while the engine
// is being destroyed: the pool drains all four of the follow-up's legs
// before its one worker joins, so the follow-up completes kOk instead of
// being shed. Admission is the only source of kOverloaded.
TEST(ShardedEngine, FollowUpSubmittedDuringDestructionCompletes) {
  MultiFixture fx = MakeMultiFixture(/*num_videos=*/4, /*base_per_video=*/4,
                                     /*seed=*/59);
  const api::QuerySpec knn = api::QuerySpec::Similar(fx.queries[0], 3);
  std::atomic<bool> destroying{false};
  std::atomic<int> follow_up_status{-1};
  std::atomic<size_t> follow_up_hits{0};

  ShardedEngineOptions so;
  so.num_shards = 4;
  so.num_threads = 1;
  auto sharded = std::make_unique<ShardedQueryEngine>(FastIndex(), so);
  FeedAll(*sharded, fx);
  ShardedQueryEngine* raw = sharded.get();
  sharded->Submit(knn, {}, [&, raw](const QueryResult&) {
    while (!destroying.load()) std::this_thread::yield();
    // Let the destructor reach the pool's drain before submitting.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    raw->Submit(knn, {}, [&](const QueryResult& r) {
      follow_up_hits.store(r.hits.size());
      follow_up_status.store(static_cast<int>(r.status));
    });
  });
  destroying.store(true);
  sharded.reset();

  EXPECT_EQ(follow_up_status.load(), static_cast<int>(StatusCode::kOk));
  EXPECT_EQ(follow_up_hits.load(), 3u);
}

// The TSan target: writers publishing, clients submitting with deadlines,
// a canceller racing completions — every handle must finalize exactly once
// with a typed status and the engine must stay consistent.
TEST(ShardedEngine, CancellationAndDeadlineRaceIsClean) {
  MultiFixture fx = MakeMultiFixture(/*num_videos=*/6, /*base_per_video=*/4,
                                     /*seed=*/53);
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.num_threads = 4;
  so.max_pending = 64;
  ShardedQueryEngine sharded(FastIndex(), so);
  std::vector<int> segment_ids = FeedAll(sharded, fx);

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 32;
  std::atomic<bool> stop{false};
  std::atomic<size_t> completions{0};
  std::atomic<size_t> bad_status{0};

  std::thread writer([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const MultiFixture::StreamOg& s = fx.stream[i % fx.stream.size()];
      sharded.AddObjectGraph(segment_ids[s.video], fx.names[s.video], s.og,
                             synth::SynthScaling());
      ++i;
    }
  });

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        api::SubmitOptions opts;
        // Mix pre-expired, tight, and comfortable deadlines.
        switch (i % 3) {
          case 0: opts.timeout = std::chrono::microseconds(-1); break;
          case 1: opts.timeout = std::chrono::microseconds(200); break;
          default: opts.timeout = std::chrono::seconds(5); break;
        }
        api::QuerySpec spec = api::QuerySpec::Similar(
            fx.queries[(c * kPerClient + i) % fx.queries.size()], 4);
        QueryHandle h = sharded.Submit(spec, opts, [&](const QueryResult& r) {
          completions.fetch_add(1, std::memory_order_relaxed);
          switch (r.status) {
            case StatusCode::kOk:
            case StatusCode::kDeadlineExceeded:
            case StatusCode::kCancelled:
            case StatusCode::kOverloaded:
              break;
            default:
              bad_status.fetch_add(1, std::memory_order_relaxed);
          }
        });
        if (i % 4 == 0) h.Cancel();
        QueryResult r = h.Wait();
        if (r.status == StatusCode::kOk) {
          EXPECT_LE(r.hits.size(), 4u);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(completions.load(), kClients * kPerClient);
  EXPECT_EQ(bad_status.load(), 0u);
  // Quiesce: abandoned requests' legs may still be draining — they hold
  // the admission token until the last leg retires.
  for (int spin = 0; spin < 2000 && sharded.metrics().queue_depth.load() != 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sharded.metrics().queue_depth.load(), 0);

  // The engine still answers correctly after the storm.
  QueryResult after = sharded.Query(api::QuerySpec::Similar(fx.queries[0], 3));
  EXPECT_EQ(after.status, StatusCode::kOk);
  EXPECT_EQ(after.hits.size(), 3u);
}

}  // namespace
}  // namespace strg::server
