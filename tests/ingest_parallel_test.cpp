// ctest-labels: ingest
// Parallel-ingest equivalence suite (ctest label: ingest).
//
// The staged ingest pipeline's contract is *bit-identical* output: the
// optimized mean-shift kernel against the naive reference, the workspace
// segmenter against the allocating one, and the pooled frame/shot stages
// against the serial path at 1/2/4 threads. Everything here compares
// serialized bytes or full field equality, never tolerances.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "segment/mean_shift.h"
#include "segment/segmenter.h"
#include "storage/serializer.h"
#include "util/ordered_stage.h"
#include "util/thread_pool.h"
#include "video/renderer.h"
#include "video/scenes.h"

namespace strg {
namespace {

using api::IngestStats;
using api::PipelineParams;
using api::ProcessFrames;
using api::SegmentResult;
using api::VideoPipeline;
using segment::MeanShiftParams;
using segment::Segmentation;
using video::Frame;
using video::Rgb;

// ---- deterministic frame factories -------------------------------------

Frame NoiseFrame(std::mt19937* rng, int w, int h) {
  Frame f(w, h);
  for (Rgb& p : f.pixels()) {
    p = {static_cast<uint8_t>((*rng)() % 256),
         static_cast<uint8_t>((*rng)() % 256),
         static_cast<uint8_t>((*rng)() % 256)};
  }
  return f;
}

Frame TiledNoiseFrame(std::mt19937* rng, int w, int h, double sigma) {
  std::normal_distribution<double> noise(0.0, sigma);
  Frame f(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double base = ((x / 8) + (y / 8)) % 2 ? 150.0 : 60.0;
      f.At(x, y) = {video::ClampByte(base + noise(*rng)),
                    video::ClampByte(base * 0.8 + noise(*rng)),
                    video::ClampByte(base * 1.1 + noise(*rng))};
    }
  }
  return f;
}

video::SceneSpec NoisyLab(int num_objects, uint64_t seed, int width = 48,
                          int height = 36) {
  video::SceneParams sp;
  sp.num_objects = num_objects;
  sp.width = width;
  sp.height = height;
  sp.noise_stddev = 2.0;
  sp.seed = seed;
  return video::MakeLabScene(sp);
}

/// Pipeline params exercising the real kernel on every frame.
PipelineParams MeanShiftPipeline() {
  PipelineParams p;
  p.segmenter.use_mean_shift = true;
  return p;
}

// ---- byte fingerprints ---------------------------------------------------

std::string FingerprintStrg(const core::Strg& strg) {
  storage::Writer w;
  w.PutVarint(strg.NumFrames());
  for (size_t t = 0; t < strg.NumFrames(); ++t) {
    storage::EncodeRag(strg.Frame(t), &w);
  }
  for (size_t t = 0; t + 1 < strg.NumFrames(); ++t) {
    const auto& edges = strg.TemporalEdges(t);
    w.PutVarint(edges.size());
    for (const core::TemporalEdge& e : edges) {
      w.PutU32(static_cast<uint32_t>(e.from_node));
      w.PutU32(static_cast<uint32_t>(e.to_node));
      w.PutDouble(e.attr.velocity);
      w.PutDouble(e.attr.direction);
    }
  }
  return w.Take();
}

std::string FingerprintResult(const SegmentResult& r) {
  storage::Writer w;
  w.PutU64(r.num_frames);
  w.PutU32(static_cast<uint32_t>(r.frame_width));
  w.PutU32(static_cast<uint32_t>(r.frame_height));
  w.PutU64(r.strg_size_bytes);
  const core::Decomposition& d = r.decomposition;
  w.PutVarint(d.orgs.size());
  for (const core::Org& org : d.orgs) {
    w.PutVarint(org.nodes.size());
    for (const core::OrgNode& n : org.nodes) {
      w.PutU32(static_cast<uint32_t>(n.frame));
      w.PutU32(static_cast<uint32_t>(n.node));
    }
    for (const graph::NodeAttr& a : org.attrs) storage::EncodeNodeAttr(a, &w);
    w.PutVarint(org.motion.size());
    for (const graph::TemporalEdgeAttr& m : org.motion) {
      w.PutDouble(m.velocity);
      w.PutDouble(m.direction);
    }
  }
  w.PutVarint(d.object_orgs.size());
  for (size_t i : d.object_orgs) w.PutVarint(i);
  w.PutVarint(d.background_orgs.size());
  for (size_t i : d.background_orgs) w.PutVarint(i);
  w.PutVarint(d.object_graphs.size());
  for (const core::Og& og : d.object_graphs) storage::EncodeOg(og, &w);
  storage::EncodeBackgroundGraph(d.background, &w);
  return w.Take();
}

// ---- mean-shift kernel equivalence --------------------------------------

TEST(MeanShiftKernel, BitIdenticalToReference) {
  std::mt19937 rng(42);
  segment::MeanShiftWorkspace ws;
  Frame out;
  for (int trial = 0; trial < 24; ++trial) {
    const int w = 1 + static_cast<int>(rng() % 41);
    const int h = 1 + static_cast<int>(rng() % 31);
    Frame f = (trial % 3 == 0) ? NoiseFrame(&rng, w, h)
                               : TiledNoiseFrame(&rng, w, h, trial % 3 == 1
                                                                ? 2.0
                                                                : 8.0);
    MeanShiftParams params;
    params.spatial_radius = static_cast<int>(rng() % 4);  // 0..3
    params.range_radius = 5.0 + static_cast<double>(rng() % 40);
    params.max_iterations = 1 + static_cast<int>(rng() % 6);
    params.convergence = (trial % 2 != 0) ? 0.5 : 0.01;

    Frame ref = segment::MeanShiftReference(f, params);
    segment::MeanShiftFilter(f, params, &ws, &out);  // workspace reused
    ASSERT_EQ(ref.pixels(), out.pixels())
        << "trial=" << trial << " w=" << w << " h=" << h
        << " R=" << params.spatial_radius << " rr=" << params.range_radius
        << " iters=" << params.max_iterations;
  }
}

TEST(MeanShiftKernel, FlatAndEdgeFramesExerciseFastPaths) {
  // Flat frames hit the convergence-point cache on nearly every pixel and
  // hard edges defeat the all-in-range shortcut; both must stay exact.
  MeanShiftParams params;
  Frame flat(33, 17, Rgb{77, 88, 99});
  EXPECT_EQ(segment::MeanShiftReference(flat, params).pixels(),
            segment::MeanShiftFilter(flat, params).pixels());

  Frame halves(40, 20, Rgb{0, 0, 0});
  for (int y = 0; y < 20; ++y) {
    for (int x = 20; x < 40; ++x) halves.At(x, y) = Rgb{240, 240, 240};
  }
  EXPECT_EQ(segment::MeanShiftReference(halves, params).pixels(),
            segment::MeanShiftFilter(halves, params).pixels());
}

TEST(MeanShiftKernel, DegenerateParamsMatchReference) {
  std::mt19937 rng(7);
  Frame f = TiledNoiseFrame(&rng, 21, 13, 4.0);
  std::vector<MeanShiftParams> cases(4);
  cases[0].spatial_radius = -1;
  cases[1].max_iterations = 0;
  cases[2].range_radius = 0.0;
  cases[3].spatial_radius = 50;  // window spans the whole frame
  for (const MeanShiftParams& params : cases) {
    EXPECT_EQ(segment::MeanShiftReference(f, params).pixels(),
              segment::MeanShiftFilter(f, params).pixels());
  }
}

// ---- segmenter workspace equivalence ------------------------------------

void ExpectSegmentationEqual(const Segmentation& a, const Segmentation& b) {
  ASSERT_EQ(a.width, b.width);
  ASSERT_EQ(a.height, b.height);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.adjacency, b.adjacency);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    const segment::Region& ra = a.regions[i];
    const segment::Region& rb = b.regions[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.size, rb.size);
    EXPECT_EQ(ra.mean_color, rb.mean_color);
    EXPECT_EQ(ra.centroid_x, rb.centroid_x);
    EXPECT_EQ(ra.centroid_y, rb.centroid_y);
    EXPECT_EQ(ra.min_x, rb.min_x);
    EXPECT_EQ(ra.max_x, rb.max_x);
    EXPECT_EQ(ra.min_y, rb.min_y);
    EXPECT_EQ(ra.max_y, rb.max_y);
  }
}

TEST(SegmenterWorkspace, ReusedWorkspaceMatchesFreshAcrossFrames) {
  video::SceneSpec scene = NoisyLab(2, 11);
  segment::SegmenterParams params;  // mean shift on
  segment::SegmenterWorkspace ws;
  Segmentation reused;
  for (int t = 0; t < std::min(scene.num_frames, 6); ++t) {
    Frame f = video::RenderFrame(scene, t);
    segment::SegmentFrameInto(f, params, &ws, &reused);
    Segmentation fresh = segment::SegmentFrame(f, params);
    ExpectSegmentationEqual(fresh, reused);
  }
}

TEST(SegmenterWorkspace, ReferenceFilteredFrameSegmentsIdentically) {
  // Segmenting a frame equals labeling the frame MeanShiftReference
  // filtered, with the segmenter's own filter off.
  std::mt19937 rng(3);
  Frame f = TiledNoiseFrame(&rng, 40, 30, 2.0);
  segment::SegmenterParams opt;
  segment::SegmenterParams unfiltered = opt;
  unfiltered.use_mean_shift = false;
  ExpectSegmentationEqual(
      segment::SegmentFrame(f, opt),
      segment::SegmentFrame(segment::MeanShiftReference(f, opt.mean_shift),
                            unfiltered));
}

// ---- ordered stage -------------------------------------------------------

TEST(OrderedStage, MergesInSubmissionOrderAndCountsStalls) {
  ThreadPool pool(4);
  std::vector<int> order;
  OrderedStage<int> stage(&pool, 2, [&](int&& v) { order.push_back(v); });
  for (int i = 0; i < 16; ++i) {
    stage.Submit([i] {
      // Reverse-staggered sleeps: later tasks finish first without the
      // in-order merge.
      std::this_thread::sleep_for(std::chrono::milliseconds((16 - i) % 4));
      return i;
    });
  }
  stage.Drain();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  // Capacity 2 with 16 slow tasks must have exerted backpressure.
  EXPECT_GT(stage.stalls(), 0u);
}

// ---- pooled pipeline equivalence ----------------------------------------

TEST(ParallelIngest, PooledVideoPipelineBitIdenticalAt124Threads) {
  video::SceneSpec scene = NoisyLab(2, 21);
  std::vector<Frame> frames = RenderScene(scene);

  PipelineParams serial = MeanShiftPipeline();
  VideoPipeline serial_pipeline(serial);
  for (const Frame& f : frames) serial_pipeline.PushFrame(f);
  SegmentResult serial_result = serial_pipeline.Finish();
  const std::string want = FingerprintResult(serial_result);
  const std::string want_strg = FingerprintStrg(serial_pipeline.strg());

  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    PipelineParams pooled = MeanShiftPipeline();
    pooled.pool = &pool;
    VideoPipeline pipeline(pooled);
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(pipeline.PushFrame(frames[i]), static_cast<int>(i));
    }
    SegmentResult result = pipeline.Finish();
    EXPECT_EQ(FingerprintResult(result), want) << threads << " threads";
    EXPECT_EQ(FingerprintStrg(pipeline.strg()), want_strg)
        << threads << " threads";
    EXPECT_EQ(pipeline.stats().frames_segmented, frames.size());
  }
}

std::vector<Frame> MultiShotStream() {
  std::vector<Frame> frames;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    video::SceneParams sp;
    sp.num_objects = 1;
    sp.width = 40;
    sp.height = 30;
    sp.noise_stddev = 2.0;
    sp.seed = seed;
    video::SceneSpec scene = seed % 2 ? video::MakeLabScene(sp)
                                      : video::MakeTrafficScene(sp);
    std::vector<Frame> shot = RenderScene(scene);
    size_t take = std::min<size_t>(shot.size(), 12);
    frames.insert(frames.end(), shot.begin(),
                  shot.begin() + static_cast<long>(take));
  }
  return frames;
}

TEST(ParallelIngest, ProcessFramesPooledBitIdentical) {
  std::vector<Frame> frames = MultiShotStream();
  PipelineParams params = MeanShiftPipeline();
  std::vector<SegmentResult> serial = ProcessFrames(frames, params);
  ASSERT_GE(serial.size(), 2u) << "stream must span several shots";

  std::vector<std::string> want;
  for (const SegmentResult& r : serial) want.push_back(FingerprintResult(r));

  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    PipelineParams pooled = MeanShiftPipeline();
    pooled.pool = &pool;
    IngestStats stats;
    std::vector<SegmentResult> got =
        ProcessFrames(frames, pooled, {}, &stats);
    ASSERT_EQ(got.size(), serial.size()) << threads << " threads";
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(FingerprintResult(got[i]), want[i])
          << "shot " << i << ", " << threads << " threads";
    }
    EXPECT_EQ(stats.shots_processed, serial.size());
    EXPECT_EQ(stats.frames_segmented, frames.size());
  }
}

TEST(ParallelIngest, QueueBackpressureIsCountedAndHarmless) {
  video::SceneSpec scene = NoisyLab(1, 5);
  std::vector<Frame> frames = RenderScene(scene);

  PipelineParams serial = MeanShiftPipeline();
  VideoPipeline serial_pipeline(serial);
  for (const Frame& f : frames) serial_pipeline.PushFrame(f);
  const std::string want = FingerprintResult(serial_pipeline.Finish());

  ThreadPool pool(1);
  PipelineParams pooled = MeanShiftPipeline();
  pooled.pool = &pool;
  pooled.queue_capacity = 1;  // every second push must wait
  VideoPipeline pipeline(pooled);
  for (const Frame& f : frames) pipeline.PushFrame(f);
  SegmentResult result = pipeline.Finish();
  EXPECT_EQ(FingerprintResult(result), want);
  EXPECT_GT(pipeline.stats().queue_full_stalls, 0u);
}

// ---- repeated Finish() snapshots ----------------------------------------

TEST(ParallelIngest, RepeatedFinishSnapshotsMidStream) {
  video::SceneSpec scene = NoisyLab(2, 31);
  std::vector<Frame> frames = RenderScene(scene);
  const size_t half = frames.size() / 2;

  // Ground truth: fresh serial pipelines over the prefix and the whole.
  VideoPipeline prefix_pipeline(MeanShiftPipeline());
  for (size_t i = 0; i < half; ++i) prefix_pipeline.PushFrame(frames[i]);
  const std::string want_half = FingerprintResult(prefix_pipeline.Finish());
  VideoPipeline full_pipeline(MeanShiftPipeline());
  for (const Frame& f : frames) full_pipeline.PushFrame(f);
  const std::string want_full = FingerprintResult(full_pipeline.Finish());

  ThreadPool pool(2);
  for (bool use_pool : {false, true}) {
    PipelineParams params = MeanShiftPipeline();
    if (use_pool) params.pool = &pool;
    VideoPipeline pipeline(params);
    for (size_t i = 0; i < half; ++i) pipeline.PushFrame(frames[i]);
    SegmentResult snap = pipeline.Finish();
    EXPECT_EQ(FingerprintResult(snap), want_half) << "pool=" << use_pool;
    EXPECT_TRUE(snap.has_cached_scaling);
    EXPECT_EQ(snap.Scaling().frame_width, snap.frame_width);
    // Snapshotting must not disturb the stream: keep pushing, finish again.
    for (size_t i = half; i < frames.size(); ++i) {
      pipeline.PushFrame(frames[i]);
    }
    EXPECT_EQ(FingerprintResult(pipeline.Finish()), want_full)
        << "pool=" << use_pool;
    // An idle re-Finish is a pure snapshot: identical bytes.
    EXPECT_EQ(FingerprintResult(pipeline.Finish()), want_full)
        << "pool=" << use_pool;
  }
}

TEST(ParallelIngest, HandBuiltResultDerivesScaling) {
  SegmentResult r;
  r.frame_width = 320;
  r.frame_height = 240;
  EXPECT_FALSE(r.has_cached_scaling);
  EXPECT_EQ(r.Scaling().frame_width, 320.0);
  EXPECT_EQ(r.Scaling().frame_height, 240.0);
}

TEST(ParallelIngest, PipelineStatsCountStages) {
  video::SceneSpec scene = NoisyLab(1, 9);
  SegmentResult result = api::ProcessScene(scene, MeanShiftPipeline());
  (void)result;
  VideoPipeline pipeline(MeanShiftPipeline());
  for (int t = 0; t < scene.num_frames; ++t) {
    pipeline.PushFrame(video::RenderFrame(scene, t));
  }
  pipeline.Finish();
  const IngestStats& s = pipeline.stats();
  EXPECT_EQ(s.frames_segmented, static_cast<uint64_t>(scene.num_frames));
  // Mean-shift segmentation of dozens of frames takes well over 1 us.
  EXPECT_GT(s.segment_us, 0u);
  EXPECT_EQ(s.queue_full_stalls, 0u);  // serial path never stalls
}

}  // namespace
}  // namespace strg
