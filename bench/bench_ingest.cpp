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
// (reference kernel, serial), the optimized serial path, and the pooled
// frame stage at 2 and 4 threads, with the per-stage breakdown from
// IngestStats. Acceptance: >= 3x on 4 threads vs the seed path.
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
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "segment/mean_shift.h"
#include "segment/segmenter.h"
#include "server/query_engine.h"
#include "synth/generator.h"
#include "util/thread_pool.h"
#include "video/renderer.h"
#include "video/scenes.h"

// ---- global allocation counter (parts 2 and 4) -------------------------
//
// Replacing the global operator new/delete lets the bench prove the
// steady-state claim instead of asserting it in a comment. Counting is
// gated so the rest of the benchmark is unaffected.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace strg {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

struct EndToEndRow {
  std::string config;
  size_t threads = 0;  // 0 = serial
  size_t frames = 0;
  double wall_ms = 0.0;
  double fps = 0.0;
  double speedup = 1.0;  // vs the seed row
  api::IngestStats stats;
};

EndToEndRow RunPipeline(const std::string& config,
                        const std::vector<video::Frame>& frames,
                        const api::PipelineParams& params, size_t threads) {
  api::VideoPipeline pipeline(params);
  auto t0 = Clock::now();
  for (const video::Frame& f : frames) pipeline.PushFrame(f);
  pipeline.Finish();
  EndToEndRow row;
  row.config = config;
  row.threads = threads;
  row.frames = frames.size();
  row.wall_ms = MillisSince(t0);
  row.fps = 1000.0 * static_cast<double>(frames.size()) / row.wall_ms;
  row.stats = pipeline.stats();
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

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

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
      auto t0 = Clock::now();
      api::VideoDatabase clone = snap->db.Clone();
      clone_us.push_back(1000.0 * MillisSince(t0));
    }
    g_allocs.store(0, std::memory_order_relaxed);
    g_alloc_bytes.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    auto t0 = Clock::now();
    engine.AddObjectGraph(segment_ids[v], "video_" + std::to_string(v),
                          og_at(num_ogs + w), synth::SynthScaling());
    publish_us.push_back(1000.0 * MillisSince(t0));
    g_count_allocs.store(false, std::memory_order_relaxed);
    bytes.push_back(
        static_cast<double>(g_alloc_bytes.load(std::memory_order_relaxed)));
    allocs.push_back(
        static_cast<double>(g_allocs.load(std::memory_order_relaxed)));
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

  auto t0 = Clock::now();
  for (int i = 0; i < kernel_frames; ++i) {
    (void)segment::MeanShiftReference(frames[static_cast<size_t>(i)],
                                      ms_params);
  }
  double ref_us =
      1000.0 * MillisSince(t0) / static_cast<double>(kernel_frames);

  t0 = Clock::now();
  for (int i = 0; i < kernel_frames; ++i) {
    segment::MeanShiftFilter(frames[static_cast<size_t>(i)], ms_params, &ws,
                             &filtered);
  }
  double opt_us =
      1000.0 * MillisSince(t0) / static_cast<double>(kernel_frames);
  double kernel_speedup = ref_us / opt_us;
  std::printf("mean-shift kernel (us/frame over %d frames)\n", kernel_frames);
  std::printf("  %-22s %10.1f\n", "reference (seed)", ref_us);
  std::printf("  %-22s %10.1f\n", "optimized", opt_us);
  std::printf("  speedup: %.2fx (acceptance floor 1.5x)\n\n", kernel_speedup);

  // ---- part 2: steady-state allocation check ----------------------------
  segment::SegmenterParams seg_params;  // mean shift on
  segment::SegmenterWorkspace seg_ws;
  segment::Segmentation seg_out;
  for (int i = 0; i < 3; ++i) {  // warm-up sizes every scratch buffer
    segment::SegmentFrameInto(frames[0], seg_params, &seg_ws, &seg_out);
  }
  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) {
    segment::SegmentFrameInto(frames[0], seg_params, &seg_ws, &seg_out);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  const uint64_t steady_allocs = g_allocs.load(std::memory_order_relaxed);
  std::printf("steady-state SegmentFrameInto heap allocations: %llu\n\n",
              static_cast<unsigned long long>(steady_allocs));
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
    seed.segmenter.use_reference_kernel = true;
    rows.push_back(RunPipeline("serial_seed_kernel", frames, seed, 0));
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
  for (EndToEndRow& r : rows) r.speedup = r.fps / seed_fps;

  std::printf("%-20s %8s %10s %10s %8s %12s %12s %12s %8s\n", "config",
              "threads", "wall_ms", "fps", "speedup", "segment_us",
              "track_us", "decomp_us", "stalls");
  for (const EndToEndRow& r : rows) {
    std::printf("%-20s %8zu %10.1f %10.2f %7.2fx %12llu %12llu %12llu %8llu\n",
                r.config.c_str(), r.threads, r.wall_ms, r.fps, r.speedup,
                static_cast<unsigned long long>(r.stats.segment_us),
                static_cast<unsigned long long>(r.stats.track_us),
                static_cast<unsigned long long>(r.stats.decompose_us),
                static_cast<unsigned long long>(r.stats.queue_full_stalls));
  }
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
  std::printf("%8s %7s %12s %10s %14s %10s\n", "ogs", "videos",
              "publish_us", "clone_us", "bytes/gen", "allocs/gen");
  for (const PublishRow& r : sweep) {
    std::printf("%8zu %7zu %12.1f %10.1f %14.0f %10.0f\n", r.ogs, r.videos,
                r.publish_us_p50, r.clone_us_p50, r.bytes_p50, r.allocs_p50);
  }
  const double publish_growth =
      sweep.back().publish_us_p50 / sweep.front().publish_us_p50;
  const double bytes_growth = sweep.back().bytes_p50 / sweep.front().bytes_p50;
  std::printf("%zu vs %zu OGs: publish %.2fx, bytes/gen %.2fx (target <= 2x)\n",
              sweep.back().ogs, sweep.front().ogs, publish_growth,
              bytes_growth);

  const double single_thread_speedup = rows[1].speedup;
  const double pooled4_speedup = rows.back().speedup;
  std::printf(
      "\nsingle-thread speedup (kernel alone): %.2fx (floor 1.5x)\n"
      "4-thread end-to-end speedup vs seed:  %.2fx (floor 3x, needs >= 4 "
      "physical cores)\n",
      single_thread_speedup, pooled4_speedup);

  std::string json =
      "{\"simd_tier\":\"" +
      std::string(dist::simd::TierName(dist::simd::ActiveTier())) + "\"";
  json += ",\"hardware_concurrency\":" + std::to_string(hw);
  json += ",\"kernel\":{\"reference_us_per_frame\":" + Num(ref_us);
  json += ",\"optimized_us_per_frame\":" + Num(opt_us);
  json += ",\"speedup\":" + Num(kernel_speedup) + "}";
  json += ",\"steady_state_allocs\":" + std::to_string(steady_allocs);
  json += ",\"end_to_end\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const EndToEndRow& r = rows[i];
    if (i != 0) json += ",";
    json += "{\"config\":\"" + r.config + "\"";
    json += ",\"threads\":" + std::to_string(r.threads);
    json += ",\"frames\":" + std::to_string(r.frames);
    json += ",\"wall_ms\":" + Num(r.wall_ms);
    json += ",\"fps\":" + Num(r.fps);
    json += ",\"speedup_vs_seed\":" + Num(r.speedup);
    json += ",\"stage_us\":{\"segment\":" +
            std::to_string(r.stats.segment_us);
    json += ",\"track\":" + std::to_string(r.stats.track_us);
    json += ",\"decompose\":" + std::to_string(r.stats.decompose_us) + "}";
    json += ",\"queue_stalls\":" + std::to_string(r.stats.queue_full_stalls);
    json += "}";
  }
  json += "],\"single_thread_speedup\":" + Num(single_thread_speedup);
  json += ",\"pooled4_speedup\":" + Num(pooled4_speedup);
  json += ",\"publish_sweep\":{\"ogs_per_video\":" +
          std::to_string(kOgsPerVideo);
  json += ",\"writes\":" + std::to_string(kSweepWrites) + ",\"rows\":[";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const PublishRow& r = sweep[i];
    if (i != 0) json += ",";
    json += "{\"ogs\":" + std::to_string(r.ogs);
    json += ",\"videos\":" + std::to_string(r.videos);
    json += ",\"publish_us_p50\":" + Num(r.publish_us_p50);
    json += ",\"clone_us_p50\":" + Num(r.clone_us_p50);
    json += ",\"bytes_per_generation_p50\":" + Num(r.bytes_p50);
    json += ",\"allocs_per_generation_p50\":" + Num(r.allocs_p50) + "}";
  }
  json += "],\"publish_growth\":" + Num(publish_growth);
  json += ",\"bytes_growth\":" + Num(bytes_growth) + "}}";

  std::ofstream out("BENCH_ingest.json");
  out << json << "\n";
  std::cout << "report written to BENCH_ingest.json\n";
  return 0;
}
