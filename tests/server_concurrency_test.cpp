// ctest-labels: server
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "server/query_engine.h"
#include "synth/generator.h"

namespace strg::server {
namespace {

/// Cheap segment fixture: synthetic OGs + empty background, with 100x100
/// frame geometry so SegmentResult::Scaling() matches synth::SynthScaling()
/// — queries built from the same dataset are then directly comparable.
struct Fixture {
  api::SegmentResult segment;           ///< first `base` OGs
  std::vector<core::Og> stream;         ///< OGs the writer threads ingest
  std::vector<dist::Sequence> queries;  ///< probe sequences
};

Fixture MakeFixture(size_t base, uint64_t seed) {
  synth::SynthParams sp;
  sp.items_per_cluster = 1;  // one OG per pattern -> 48 total
  sp.seed = seed;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);

  Fixture fx;
  fx.segment.frame_width = 100;
  fx.segment.frame_height = 100;
  size_t frames = 0;
  for (size_t i = 0; i < ds.ogs.size(); ++i) {
    const core::Og& og = ds.ogs[i];
    frames = std::max(frames, static_cast<size_t>(og.start_frame) +
                                  og.Length());
    if (i < base) {
      fx.segment.decomposition.object_graphs.push_back(og);
    } else {
      fx.stream.push_back(og);
    }
  }
  fx.segment.num_frames = frames;
  fx.queries = ds.Sequences(synth::SynthScaling());
  return fx;
}

index::StrgIndexParams FastIndex() {
  index::StrgIndexParams p;
  p.num_clusters = 4;
  p.cluster_params.max_iterations = 4;
  return p;
}

/// The central invariant: AddVideo publishes generation 1 holding `base`
/// OGs, and every later publication adds exactly one OG, so any snapshot
/// must answer exhaustive queries with exactly base + (generation - 1)
/// hits. A torn read (query observing a half-inserted tree) breaks this.
size_t ExpectedOgs(size_t base, uint64_t generation) {
  return base + static_cast<size_t>(generation - 1);
}

TEST(ServerConcurrency, WritersAndReadersSeeConsistentGenerations) {
  constexpr size_t kBase = 16;
  constexpr size_t kWriters = 2;
  constexpr size_t kOgsPerWriter = 10;
  constexpr size_t kReaders = 4;
  constexpr size_t kQueriesPerReader = 40;

  Fixture fx = MakeFixture(kBase, 7);
  ASSERT_GE(fx.stream.size(), kWriters * kOgsPerWriter);

  EngineOptions opts;
  opts.num_threads = 4;
  opts.max_pending = 256;
  QueryEngine engine(FastIndex(), opts);

  int segment_id = -1;
  uint64_t gen = engine.AddVideo("lab", fx.segment, &segment_id);
  ASSERT_EQ(gen, 1u);
  ASSERT_EQ(segment_id, 0);

  const dist::FeatureScaling scaling = synth::SynthScaling();
  std::atomic<bool> failed{false};

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kOgsPerWriter; ++i) {
        const core::Og& og = fx.stream[w * kOgsPerWriter + i];
        uint64_t g = engine.AddObjectGraph(segment_id, "lab", og, scaling);
        if (g < 2) failed.store(true);
      }
    });
  }

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_gen = 0;
      for (size_t i = 0; i < kQueriesPerReader; ++i) {
        const dist::Sequence& q = fx.queries[(r * 13 + i) % fx.queries.size()];
        QueryResult res;
        switch (i % 3) {
          case 0:
            res = engine.Query(api::QuerySpec::Similar(q, 100000));
            break;
          case 1:
            res = engine.Query(api::QuerySpec::WithinRadius(q, 1e12));
            break;
          default:
            res = engine.Query(api::QuerySpec::Active("lab", 0, 1 << 30));
            break;
        }
        if (res.status != StatusCode::kOk) {
          failed.store(true);
          continue;
        }
        // Exhaustive queries must see exactly the published OG count for
        // the generation they report — never a half-inserted tree.
        EXPECT_EQ(res.hits.size(), ExpectedOgs(kBase, res.generation))
            << "generation " << res.generation;
        EXPECT_GE(res.generation, last_gen) << "generation went backwards";
        last_gen = res.generation;
      }
    });
  }

  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  const size_t total = kBase + kWriters * kOgsPerWriter;
  EXPECT_EQ(engine.Generation(), 1 + kWriters * kOgsPerWriter);
  QueryResult fin =
      engine.Query(api::QuerySpec::Similar(fx.queries[0], 100000));
  ASSERT_EQ(fin.status, StatusCode::kOk);
  EXPECT_EQ(fin.hits.size(), total);
  EXPECT_EQ(engine.snapshot()->db.NumObjectGraphs(), total);
}

TEST(ServerConcurrency, SnapshotsAreImmutableWhileIngestContinues) {
  constexpr size_t kBase = 12;
  Fixture fx = MakeFixture(kBase, 11);

  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine(FastIndex(), opts);
  int segment_id = -1;
  engine.AddVideo("lab", fx.segment, &segment_id);

  const dist::FeatureScaling scaling = synth::SynthScaling();
  std::thread writer([&] {
    for (const core::Og& og : fx.stream) {
      engine.AddObjectGraph(segment_id, "lab", og, scaling);
    }
  });

  // A retained snapshot is a frozen generation: repeated serial replays on
  // it must agree with each other — and with its recorded OG count — no
  // matter how many newer generations the writer publishes meanwhile.
  for (int round = 0; round < 10; ++round) {
    std::shared_ptr<const Snapshot> snap = engine.snapshot();
    const size_t count = snap->db.NumObjectGraphs();
    EXPECT_EQ(count, ExpectedOgs(kBase, snap->generation));
    const dist::Sequence& q = fx.queries[round % fx.queries.size()];
    auto first = snap->db.Query(api::QuerySpec::Similar(q, 5));
    auto second = snap->db.Query(api::QuerySpec::Similar(q, 5));
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].og_id, second[i].og_id);
      EXPECT_DOUBLE_EQ(first[i].distance, second[i].distance);
    }
    EXPECT_EQ(snap->db.NumObjectGraphs(), count);
  }

  writer.join();
}

// Every request runs its query: a repeat on one generation recomputes the
// same answer with the same distance work, and the next request after a
// publish answers from the new generation.
TEST(ServerConcurrency, RepeatedQueryIsRecomputedAndSeesEachPublish) {
  Fixture fx = MakeFixture(8, 3);
  QueryEngine engine(FastIndex());
  int segment_id = -1;
  engine.AddVideo("lab", fx.segment, &segment_id);

  const api::QuerySpec knn = api::QuerySpec::Similar(fx.queries[2], 4);
  const std::atomic<uint64_t>& dps = engine.metrics().distance_computations;
  const uint64_t dp0 = dps.load();
  QueryResult first = engine.Query(knn);
  ASSERT_EQ(first.status, StatusCode::kOk);
  const uint64_t dp1 = dps.load();
  QueryResult second = engine.Query(knn);
  ASSERT_EQ(second.status, StatusCode::kOk);
  const uint64_t dp2 = dps.load();

  EXPECT_EQ(second.generation, first.generation);
  ASSERT_EQ(second.hits.size(), first.hits.size());
  for (size_t i = 0; i < first.hits.size(); ++i) {
    EXPECT_EQ(second.hits[i].og_id, first.hits[i].og_id);
    EXPECT_EQ(std::bit_cast<uint64_t>(second.hits[i].distance),
              std::bit_cast<uint64_t>(first.hits[i].distance));
  }
  EXPECT_GT(dp1 - dp0, 0u);
  EXPECT_EQ(dp2 - dp1, dp1 - dp0) << "the repeat must run the search again";

  engine.AddObjectGraph(segment_id, "lab", fx.stream[0],
                        synth::SynthScaling());
  QueryResult after = engine.Query(knn);
  ASSERT_EQ(after.status, StatusCode::kOk);
  EXPECT_EQ(after.generation, first.generation + 1);
}

TEST(ServerConcurrency, ZeroAdmissionBudgetRejectsWithOverloaded) {
  Fixture fx = MakeFixture(8, 5);
  EngineOptions opts;
  opts.max_pending = 0;
  QueryEngine engine(FastIndex(), opts);
  engine.AddVideo("lab", fx.segment);

  QueryResult res = engine.Query(api::QuerySpec::Similar(fx.queries[0], 3));
  EXPECT_EQ(res.status, StatusCode::kOverloaded);
  EXPECT_TRUE(res.hits.empty());
  EXPECT_EQ(res.generation, 0u);
  EXPECT_GE(engine.metrics().rejected_overloaded.load(), 1u);
  EXPECT_EQ(StatusCodeName(res.status), "OVERLOADED");
}

TEST(ServerConcurrency, ExpiredDeadlineYieldsDeadlineExceeded) {
  Fixture fx = MakeFixture(8, 9);
  QueryEngine engine(FastIndex());
  engine.AddVideo("lab", fx.segment);

  api::SubmitOptions qo;
  qo.timeout = std::chrono::microseconds(-1);  // expired on arrival
  QueryResult res = engine.Query(api::QuerySpec::Similar(fx.queries[1], 3), qo);
  EXPECT_EQ(res.status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(res.hits.empty());
  const auto& m = engine.metrics();
  EXPECT_GE(m.deadline_exceeded.load() + m.expired_in_queue.load(), 1u);

  // The engine keeps serving normally afterwards.
  QueryResult ok = engine.Query(api::QuerySpec::Similar(fx.queries[1], 3));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  EXPECT_EQ(ok.hits.size(), 3u);
}

// A waiter whose deadline passes finalizes the request and counts it in
// deadline_exceeded. When the request's task is dequeued afterwards, the
// worker must not count the same outcome again as expired_in_queue.
TEST(ServerConcurrency, DeadlineOutcomeIsCountedOnce) {
  Fixture fx = MakeFixture(8, 9);
  EngineOptions opts;
  opts.num_threads = 1;
  QueryEngine engine(FastIndex(), opts);
  engine.AddVideo("lab", fx.segment);

  // Hold the engine's only worker so the next request waits in the queue:
  // the first request's completion callback runs on it and blocks.
  std::atomic<bool> release{false};
  QueryHandle holder =
      engine.Submit(api::QuerySpec::Similar(fx.queries[0], 3), {},
                    [&release](const QueryResult&) {
                      while (!release.load()) {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(100));
                      }
                    });

  api::SubmitOptions tight;
  tight.timeout = std::chrono::milliseconds(5);
  QueryResult expired =
      engine.Query(api::QuerySpec::Similar(fx.queries[1], 3), tight);
  EXPECT_EQ(expired.status, StatusCode::kDeadlineExceeded);

  // One FIFO worker: the expired task is dequeued before this request's.
  release.store(true);
  QueryResult ok = engine.Query(api::QuerySpec::Similar(fx.queries[1], 3));
  ASSERT_EQ(ok.status, StatusCode::kOk);
  ASSERT_EQ(holder.Wait().status, StatusCode::kOk);

  const ServerMetrics& m = engine.metrics();
  const uint64_t counted =
      m.deadline_exceeded.load() + m.expired_in_queue.load();
  EXPECT_EQ(counted, 1u);
  EXPECT_EQ(m.status_counts[static_cast<size_t>(StatusCode::kDeadlineExceeded)]
                .load(),
            counted);
  EXPECT_EQ(m.queue_depth.load(), 0);
}

// A completion callback that submits a follow-up request while its engine
// is being destroyed: the engine's pool drains the follow-up before its
// workers join, so it runs against the still-live snapshot chain and
// completes kOk. Admission is the only source of kOverloaded.
TEST(ServerConcurrency, FollowUpSubmittedDuringDestructionCompletes) {
  Fixture fx = MakeFixture(8, 17);
  const api::QuerySpec knn = api::QuerySpec::Similar(fx.queries[1], 3);
  std::atomic<bool> destroying{false};
  std::atomic<int> follow_up_status{-1};
  std::atomic<size_t> follow_up_hits{0};

  EngineOptions opts;
  opts.num_threads = 1;
  auto engine = std::make_unique<QueryEngine>(FastIndex(), opts);
  engine->AddVideo("lab", fx.segment);
  QueryEngine* raw = engine.get();
  engine->Submit(knn, {}, [&, raw](const QueryResult&) {
    while (!destroying.load()) std::this_thread::yield();
    // Let the destructor reach the pool's drain before submitting.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    raw->Submit(knn, {}, [&](const QueryResult& r) {
      follow_up_hits.store(r.hits.size());
      follow_up_status.store(static_cast<int>(r.status));
    });
  });
  destroying.store(true);
  engine.reset();

  EXPECT_EQ(follow_up_status.load(), static_cast<int>(StatusCode::kOk));
  EXPECT_EQ(follow_up_hits.load(), 3u);
}

TEST(ServerConcurrency, MetricsJsonReportsServingState) {
  Fixture fx = MakeFixture(8, 13);
  QueryEngine engine(FastIndex());
  engine.AddVideo("lab", fx.segment);
  engine.Query(api::QuerySpec::Similar(fx.queries[0], 2));
  engine.Query(api::QuerySpec::Similar(fx.queries[0], 2));
  engine.Query(api::QuerySpec::WithinRadius(fx.queries[1], 1.0));
  engine.Query(api::QuerySpec::Active("lab", 0, 100));

  std::string json = engine.MetricsJson();
  EXPECT_NE(json.find("\"generation\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":0"), std::string::npos) << json;
  EXPECT_EQ(engine.metrics().admitted.load(), 4u);
}

}  // namespace
}  // namespace strg::server
