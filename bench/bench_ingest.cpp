// Ingest benchmark: fast mean-shift kernel + staged parallel pipeline.
//
// Part 1 — kernel micro: MeanShiftReference (the seed implementation) vs
// the optimized workspace kernel, us/frame on the bench scene. Acceptance:
// >= 1.5x single-threaded from the kernel alone.
//
// Part 2 — steady-state allocation check: after warm-up on a fixed
// geometry, SegmentFrameInto must perform zero heap allocations (the whole
// point of SegmenterWorkspace). The bench fails loudly if it allocates.
//
// Part 3 — end-to-end frames/sec through VideoPipeline: the seed path
// (each frame filtered with MeanShiftReference in the timed loop, then
// labeled by a serial pipeline with its own filter off), the optimized
// serial path, and the pooled frame stage at 2 and 4 threads, with the
// per-stage breakdown from IngestStats. Acceptance: >= 3x on 4 threads vs
// the seed path.
//
// Part 4 — publish cost against catalog size: catalogs of 250, 1,000 and
// 4,000 OGs (50-OG videos, so the catalog grows by adding videos), then
// single-OG writes through server::QueryEngine. Per write: the median
// publish time (clone + insert + publish + teardown of the displaced
// generation), the clone alone, and the bytes and allocations the publish
// made. Target: flat — 4,000 OGs within 2x of 250 OGs.
//
// Output: human-readable stdout + BENCH_ingest.json.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "bench_common.h"
#include "core/pipeline.h"
#include "segment/mean_shift.h"
#include "segment/segmenter.h"
#include "server/query_engine.h"
#include "synth/generator.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "video/renderer.h"
#include "video/scenes.h"

namespace strg {
namespace {

struct EndToEndRow {
  std::string config;
  size_t threads = 0;  // 0 = serial
  size_t frames = 0;
  double wall_ms = 0.0;
  double fps = 0.0;
  api::IngestStats stats;
};

/// Pushes `frames` through a pipeline built from `params`, timed. With
/// `prefilter` set, each frame is first filtered with MeanShiftReference
/// inside the timed loop (so `params` should turn the segmenter's own filter
/// off), and the filter time counts toward segment_us.
EndToEndRow RunPipeline(const std::string& config,
                        const std::vector<video::Frame>& frames,
                        const api::PipelineParams& params, size_t threads,
                        const segment::MeanShiftParams* prefilter = nullptr) {
  api::VideoPipeline pipeline(params);
  double filter_ms = 0.0;
  Timer wall;
  for (const video::Frame& f : frames) {
    if (prefilter == nullptr) {
      pipeline.PushFrame(f);
      continue;
    }
    Timer filter;
    video::Frame filtered = segment::MeanShiftReference(f, *prefilter);
    filter_ms += filter.Millis();
    pipeline.PushFrame(filtered);
  }
  pipeline.Finish();
  EndToEndRow row;
  row.config = config;
  row.threads = threads;
  row.frames = frames.size();
  row.wall_ms = wall.Millis();
  row.fps = 1000.0 * static_cast<double>(frames.size()) / row.wall_ms;
  row.stats = pipeline.stats();
  row.stats.segment_us += static_cast<uint64_t>(1000.0 * filter_ms);
  return row;
}

// ---- part 4: publish cost against catalog size --------------------------

constexpr size_t kOgsPerVideo = 50;
constexpr size_t kSweepWrites = 64;
constexpr size_t kSweepSizes[] = {250, 1000, 4000};

struct PublishRow {
  size_t ogs = 0;
  size_t videos = 0;
  double publish_us_p50 = 0.0;
  double clone_us_p50 = 0.0;
  double bytes_p50 = 0.0;   ///< allocated inside one publish
  double allocs_p50 = 0.0;
};

/// Builds a `num_ogs` catalog of 50-OG videos on a fresh engine, then
/// times kSweepWrites single-OG publishes spread over the videos. The OGs
/// are drawn from `ogs` in a fixed stride order, so every catalog mixes
/// all 48 synthetic patterns.
PublishRow MeasurePublish(size_t num_ogs, const std::vector<core::Og>& ogs) {
  auto og_at = [&](size_t i) -> const core::Og& {
    return ogs[(i * 1031) % ogs.size()];  // 1031 is coprime to the pool
  };
  index::StrgIndexParams ip;
  ip.num_clusters = 4;
  ip.cluster_params.max_iterations = 4;
  server::EngineOptions eo;
  eo.num_threads = 1;
  server::QueryEngine engine(ip, eo);

  PublishRow row;
  row.ogs = num_ogs;
  row.videos = num_ogs / kOgsPerVideo;
  std::vector<int> segment_ids(row.videos);
  for (size_t v = 0; v < row.videos; ++v) {
    api::SegmentResult segment;
    segment.frame_width = 100;  // Scaling() == synth::SynthScaling()
    segment.frame_height = 100;
    for (size_t k = 0; k < kOgsPerVideo; ++k) {
      const core::Og& og = og_at(v * kOgsPerVideo + k);
      segment.decomposition.object_graphs.push_back(og);
      segment.num_frames = std::max(
          segment.num_frames, static_cast<size_t>(og.start_frame) +
                                  og.Length());
    }
    engine.AddVideo("video_" + std::to_string(v), segment, &segment_ids[v]);
  }

  std::vector<double> publish_us, clone_us, bytes, allocs;
  for (size_t w = 0; w < kSweepWrites; ++w) {
    const size_t v = (w * 7) % row.videos;
    {
      std::shared_ptr<const server::Snapshot> snap = engine.snapshot();
      Timer timer;
      api::VideoDatabase clone = snap->db.Clone();
      clone_us.push_back(timer.Seconds() * 1e6);
    }
    bench::StartAllocCount();
    Timer timer;
    engine.AddObjectGraph(segment_ids[v], "video_" + std::to_string(v),
                          og_at(num_ogs + w), synth::SynthScaling());
    const double us = timer.Seconds() * 1e6;
    const bench::AllocCount made = bench::StopAllocCount();
    publish_us.push_back(us);
    bytes.push_back(static_cast<double>(made.bytes));
    allocs.push_back(static_cast<double>(made.allocs));
  }
  row.publish_us_p50 = Median(publish_us);
  row.clone_us_p50 = Median(clone_us);
  row.bytes_p50 = Median(bytes);
  row.allocs_p50 = Median(allocs);
  return row;
}

}  // namespace
}  // namespace strg

int main() {
  using namespace strg;
  bench::Banner("BENCH ingest",
                "fast mean-shift kernel + staged parallel ingest pipeline "
                "vs the serial seed path");
  bench::JsonReport report("BENCH_ingest.json");

  const int scale = bench::EnvInt("STRG_BENCH_SCALE", 1);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware concurrency: %u%s\n", hw,
              hw < 4 ? " (pooled rows are core-bound below 4 threads)" : "");

  // The bench stream: the lab scene at 160x120 with sensor noise, so the
  // mean-shift filter does real work on every pixel.
  video::SceneParams sp;
  sp.num_objects = 4;
  sp.width = 160;
  sp.height = 120;
  sp.noise_stddev = 2.0;
  sp.seed = 17;
  video::SceneSpec scene = video::MakeLabScene(sp);
  std::vector<video::Frame> frames;
  for (int rep = 0; rep < scale; ++rep) {
    for (int t = 0; t < scene.num_frames; ++t) {
      frames.push_back(video::RenderFrame(scene, t));
    }
  }
  std::printf("stream: %zu frames of %dx%d\n\n", frames.size(), sp.width,
              sp.height);

  // ---- part 1: kernel micro ---------------------------------------------
  const segment::MeanShiftParams ms_params;
  const int kernel_frames = std::min<int>(static_cast<int>(frames.size()),
                                          8 * scale);
  segment::MeanShiftWorkspace ws;
  video::Frame filtered;
  // Warm up both paths (page in buffers, stabilize the clock).
  segment::MeanShiftFilter(frames[0], ms_params, &ws, &filtered);
  (void)segment::MeanShiftReference(frames[0], ms_params);

  Timer timer;
  for (int i = 0; i < kernel_frames; ++i) {
    (void)segment::MeanShiftReference(frames[static_cast<size_t>(i)],
                                      ms_params);
  }
  const double ref_us = timer.Seconds() * 1e6 / kernel_frames;

  timer.Restart();
  for (int i = 0; i < kernel_frames; ++i) {
    segment::MeanShiftFilter(frames[static_cast<size_t>(i)], ms_params, &ws,
                             &filtered);
  }
  const double opt_us = timer.Seconds() * 1e6 / kernel_frames;
  std::printf("mean-shift kernel (us/frame over %d frames, acceptance floor "
              "1.5x)\n",
              kernel_frames);
  Table kernel({"reference_us_per_frame", "optimized_us_per_frame",
                "speedup"});
  kernel.AddNumericRow({ref_us, opt_us, ref_us / opt_us});
  kernel.Print(std::cout);
  report.AddTable("kernel", kernel);

  // ---- part 2: steady-state allocation check ----------------------------
  segment::SegmenterParams seg_params;  // mean shift on
  segment::SegmenterWorkspace seg_ws;
  segment::Segmentation seg_out;
  for (int i = 0; i < 3; ++i) {  // warm-up sizes every scratch buffer
    segment::SegmentFrameInto(frames[0], seg_params, &seg_ws, &seg_out);
  }
  bench::StartAllocCount();
  for (int i = 0; i < 5; ++i) {
    segment::SegmentFrameInto(frames[0], seg_params, &seg_ws, &seg_out);
  }
  const uint64_t steady_allocs = bench::StopAllocCount().allocs;
  std::printf("\nsteady-state SegmentFrameInto heap allocations: %llu\n\n",
              static_cast<unsigned long long>(steady_allocs));
  report.AddScalar("steady_state_allocs", static_cast<double>(steady_allocs));
  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: SegmentFrameInto allocated %llu times after warm-up "
                 "(workspace regression)\n",
                 static_cast<unsigned long long>(steady_allocs));
    return 1;
  }

  // ---- part 3: end-to-end frames/sec ------------------------------------
  std::vector<EndToEndRow> rows;
  {
    api::PipelineParams seed;
    seed.segmenter.use_mean_shift = false;
    rows.push_back(RunPipeline("serial_seed_kernel", frames, seed, 0,
                               &seed.segmenter.mean_shift));
  }
  {
    api::PipelineParams serial;
    rows.push_back(RunPipeline("serial_optimized", frames, serial, 0));
  }
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    api::PipelineParams pooled;
    pooled.pool = &pool;
    rows.push_back(RunPipeline("pooled_" + std::to_string(threads), frames,
                               pooled, threads));
  }
  const double seed_fps = rows[0].fps;
  Table end_to_end({"config", "threads", "frames", "wall_ms", "fps",
                    "speedup_vs_seed", "segment_us", "track_us",
                    "decompose_us", "queue_stalls"});
  for (const EndToEndRow& r : rows) {
    end_to_end.AddRow({r.config, std::to_string(r.threads),
                       std::to_string(r.frames), FormatDouble(r.wall_ms),
                       FormatDouble(r.fps), FormatDouble(r.fps / seed_fps),
                       std::to_string(r.stats.segment_us),
                       std::to_string(r.stats.track_us),
                       std::to_string(r.stats.decompose_us),
                       std::to_string(r.stats.queue_full_stalls)});
  }
  end_to_end.Print(std::cout);
  report.AddTable("end_to_end", end_to_end);

  // ---- part 4: publish cost against catalog size ------------------------
  std::vector<PublishRow> sweep;
  {
    synth::SynthParams sp;
    sp.items_per_cluster = 85;  // 48 x 85 = 4,080 OGs >= 4,000 + writes
    sp.seed = 29;
    const std::vector<core::Og> pool = synth::GenerateSyntheticOgs(sp).ogs;
    for (size_t n : kSweepSizes) sweep.push_back(MeasurePublish(n, pool));
  }
  std::printf("\npublish cost vs catalog size (median of %zu single-OG "
              "writes, 50-OG videos)\n",
              kSweepWrites);
  Table publish({"ogs", "videos", "publish_us_p50", "clone_us_p50",
                 "bytes_per_generation_p50", "allocs_per_generation_p50"});
  for (const PublishRow& r : sweep) {
    publish.AddRow({std::to_string(r.ogs), std::to_string(r.videos),
                    FormatDouble(r.publish_us_p50),
                    FormatDouble(r.clone_us_p50), FormatDouble(r.bytes_p50),
                    FormatDouble(r.allocs_p50)});
  }
  publish.Print(std::cout);
  const double publish_growth =
      sweep.back().publish_us_p50 / sweep.front().publish_us_p50;
  const double bytes_growth = sweep.back().bytes_p50 / sweep.front().bytes_p50;
  std::printf("%zu vs %zu OGs: publish %.2fx, bytes/gen %.2fx (target <= 2x)\n",
              sweep.back().ogs, sweep.front().ogs, publish_growth,
              bytes_growth);
  report.AddTable("publish_sweep", publish);
  report.AddScalar("ogs_per_video", static_cast<double>(kOgsPerVideo));
  report.AddScalar("writes", static_cast<double>(kSweepWrites));
  report.AddScalar("publish_growth", publish_growth);
  report.AddScalar("bytes_growth", bytes_growth);

  const double single_thread_speedup = rows[1].fps / seed_fps;
  const double pooled4_speedup = rows.back().fps / seed_fps;
  std::printf(
      "\nsingle-thread speedup (kernel alone): %.2fx (floor 1.5x)\n"
      "4-thread end-to-end speedup vs seed:  %.2fx (floor 3x, needs >= 4 "
      "physical cores)\n",
      single_thread_speedup, pooled4_speedup);
  report.AddScalar("single_thread_speedup", single_thread_speedup);
  report.AddScalar("pooled4_speedup", pooled4_speedup);
  report.Write();
  return 0;
}
