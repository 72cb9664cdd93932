// Out-of-core storage engine: kNN latency vs buffer-cache budget.
//
// A synthetic OG dataset is indexed through a PagedRecordStore whose page
// file grows to many times the cache budget; the sweep shrinks the budget
// from "everything resident" down to ~1/16 of the dataset and measures
// uncached kNN p50/p99 plus the cache's own hit/miss/eviction counters and
// page misses per query at each point. The proof obligations:
//
//   * resident page memory equals the configured frame pool at every
//     point (bounded by construction, never by luck), and
//   * the smallest budget serves a dataset >= 10x its size with answers
//     identical to the fully-resident run: every probe's whole top-10, ids
//     and distance bits, at every budget.
//
// Output: human-readable stdout + BENCH_paging.json.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/video_database.h"
#include "index/strg_index.h"
#include "storage/pager/paged_record_store.h"
#include "storage/pager/storage_params.h"
#include "synth/generator.h"
#include "util/table.h"

namespace strg {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p / 100.0 *
                                   static_cast<double>(v.size() - 1));
  return v[idx];
}

api::SegmentResult MakeSegment(const synth::SynthDataset& ds) {
  api::SegmentResult segment;
  segment.frame_width = 100;
  segment.frame_height = 100;
  size_t frames = 0;
  for (const core::Og& og : ds.ogs) {
    frames = std::max(frames,
                      static_cast<size_t>(og.start_frame) + og.Length());
    segment.decomposition.object_graphs.push_back(og);
  }
  segment.num_frames = frames;
  return segment;
}

struct SweepPoint {
  uint64_t cache_bytes = 0;
  size_t frames = 0;
  uint64_t dataset_bytes = 0;
  double ratio = 0.0;  ///< dataset bytes / resident bytes
  double p50_us = 0.0;
  double p99_us = 0.0;
  storage::BufferCacheStats stats;
  double misses_per_query = 0.0;  ///< page misses of the query phase / probe
  /// Every probe's top-10 as (og id, distance bits) pairs, concatenated —
  /// the whole answer the equivalence check compares.
  std::vector<std::pair<size_t, uint64_t>> answers;
};

SweepPoint RunSweepPoint(const api::SegmentResult& segment,
                         const std::vector<dist::Sequence>& probes,
                         uint64_t cache_bytes, size_t page_size) {
  std::string path = "bench_paging.pages";
  std::remove(path.c_str());
  storage::StorageParams params;
  params.paged = true;
  params.page_size = page_size;
  params.cache_bytes = cache_bytes;
  params.cache_shards = 4;
  auto store = storage::PagedRecordStore::Create(path, params).value();

  index::StrgIndexParams ip;
  ip.num_clusters = 8;
  ip.paged_store = store.get();
  api::VideoDatabase db(ip);
  db.AddVideo("synth", segment);

  SweepPoint point;
  point.cache_bytes = cache_bytes;
  point.frames = store->cache()->num_frames();
  point.dataset_bytes = store->file().num_pages() * page_size;
  point.ratio = static_cast<double>(point.dataset_bytes) /
                static_cast<double>(store->cache()->resident_bytes());

  const uint64_t build_misses = store->cache_stats().misses;
  std::vector<double> lat;
  lat.reserve(probes.size());
  for (const dist::Sequence& probe : probes) {
    auto t0 = Clock::now();
    auto hits = db.FindSimilar(probe, 10);
    lat.push_back(MicrosSince(t0));
    for (const auto& hit : hits) {
      point.answers.emplace_back(hit.og_id,
                                 std::bit_cast<uint64_t>(hit.distance));
    }
  }
  point.p50_us = Percentile(lat, 50.0);
  point.p99_us = Percentile(lat, 99.0);
  point.stats = store->cache_stats();
  point.misses_per_query =
      static_cast<double>(point.stats.misses - build_misses) /
      static_cast<double>(probes.size());
  store.reset();
  std::remove(path.c_str());
  return point;
}

int Run() {
  bench::Banner("Paging sweep",
                "kNN latency vs buffer-cache budget (out-of-core engine)");

  synth::SynthParams sp;
  sp.items_per_cluster =
      static_cast<size_t>(bench::EnvInt("STRG_BENCH_SCALE", 0) > 0
                              ? 4 * bench::EnvInt("STRG_BENCH_SCALE", 1)
                              : (bench::FullScale() ? 10 : 4));
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);
  api::SegmentResult segment = MakeSegment(ds);
  std::vector<dist::Sequence> probes = ds.TrueSequences(synth::SynthScaling());

  const size_t page_size = 512;

  // Size the sweep off the fully-resident run: its file size is the
  // dataset footprint every smaller budget must still serve.
  SweepPoint resident =
      RunSweepPoint(segment, probes, /*cache_bytes=*/256ull << 20, page_size);
  std::cout << "dataset: " << ds.ogs.size() << " OGs, "
            << resident.dataset_bytes / 1024 << " KiB in pages\n\n";

  std::vector<uint64_t> budgets;
  for (uint64_t div : {1, 2, 4, 8, 16}) {
    uint64_t b = resident.dataset_bytes / div;
    budgets.push_back(std::max<uint64_t>(b, 4 * page_size));
  }

  Table table({"cache_kb", "frames", "resident_kb", "dataset_x",
                     "p50_us", "p99_us", "hit_rate", "hits", "misses",
                     "evictions", "misses_per_query"});
  std::vector<SweepPoint> points;
  for (uint64_t budget : budgets) {
    SweepPoint p = RunSweepPoint(segment, probes, budget, page_size);
    points.push_back(p);
    table.AddNumericRow(
        {static_cast<double>(budget) / 1024.0, static_cast<double>(p.frames),
         static_cast<double>(p.frames * page_size) / 1024.0, p.ratio,
         p.p50_us, p.p99_us, p.stats.HitRate(),
         static_cast<double>(p.stats.hits),
         static_cast<double>(p.stats.misses),
         static_cast<double>(p.stats.evictions), p.misses_per_query});
  }
  table.Print(std::cout);

  // Proof obligations (see file comment).
  const SweepPoint& tiniest = points.back();
  bool answers_identical = true;
  for (const SweepPoint& p : points) {
    if (p.answers != resident.answers) answers_identical = false;
  }
  std::cout << "\nsmallest budget serves " << tiniest.ratio
            << "x its resident memory";
  std::cout << (tiniest.ratio >= 10.0 ? " (>= 10x target met)\n"
                                      : " (< 10x target MISSED)\n");
  std::cout << "top-10 answers (ids + distance bits) identical across all "
               "budgets: "
            << (answers_identical ? "yes" : "NO — paging changed results")
            << "\n";

  bench::JsonReport report("BENCH_paging.json");
  report.AddTable("sweep", table);
  report.AddScalar("dataset_bytes",
                   static_cast<double>(resident.dataset_bytes));
  report.AddScalar("num_ogs", static_cast<double>(ds.ogs.size()));
  report.AddScalar("page_size", static_cast<double>(page_size));
  report.AddScalar("min_budget_dataset_ratio", tiniest.ratio);
  report.AddScalar("answers_identical", answers_identical ? 1.0 : 0.0);
  report.AddScalar("resident_p50_us", resident.p50_us);
  report.AddScalar("resident_p99_us", resident.p99_us);
  report.Write();

  return (answers_identical && tiniest.ratio >= 10.0) ? 0 : 1;
}

}  // namespace
}  // namespace strg

int main() { return strg::Run(); }
