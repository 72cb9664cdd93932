// strgtool: command-line front end for the library.
//
//   strgtool ingest <catalog> <lab|traffic> <name> <num_objects> [seed]
//       Render + process a simulated stream and append it to a catalog
//       file (creates the catalog if absent).
//   strgtool info <catalog>
//       Describe the catalog's segments.
//   strgtool stats <catalog>
//       Rebuild the index and print its structural health (clusters, leaf
//       occupancancy, covering radii).
//   strgtool query <catalog> <video> <og_index> [k]
//       Rebuild the database from the catalog and run a k-NN query using
//       one of the stored OGs as the probe.
//   strgtool ingest-ppm <catalog> <name> <dir>
//       Ingest a real frame sequence (sorted .ppm files, e.g. exported by
//       `ffmpeg -i clip.mp4 frames/%06d.ppm`): shot detection splits the
//       stream, each shot becomes its own catalog segment.
//   strgtool serve [--shards=N] [--paged] [--cache-mb=N] <wal-dir>
//                  [lab|traffic <name> <num_objects> [seed]]
//       Open a crash-durable engine on <wal-dir> (recovering any prior
//       state), optionally ingest one rendered scene through the WAL, run
//       a sample query, and print recovery stats + server metrics. Run it
//       twice with the same <wal-dir> to watch state survive a restart.
//       --paged routes bulk records through the out-of-core page store with
//       a --cache-mb buffer-cache budget (default 8 MiB). --shards=N also
//       serves the recovered catalog through an N-way scatter-gather
//       ShardedQueryEngine and prints its per-shard metrics.
//   strgtool save <wal-dir> <catalog-out>
//       Recover the durable state in <wal-dir> and export it as a plain
//       catalog file usable by info/stats/query.
//   strgtool stat <page-file>
//       Audit a page file (store.pages / catalog.pages) offline: header
//       fields, page-type counts, free-list health, and live/dead record
//       occupancy per record type.
//   strgtool simd
//       Print the detected simd dispatch tier for the distance kernels and
//       micro-time the point-distance batch and exact EGED DP on every tier
//       this host can run (scalar is always available; vector tiers must be
//       bit-identical, so the timings are the only observable difference).
//       Then the same for the CRC32C tiers that check every WAL record and
//       page: the active tier and the time per 4 KiB page on each.
//
// Demonstrates persistence (storage::Catalog + the WAL-backed
// DurableQueryEngine) plus the retrieval API; a real deployment would
// ingest camera frames instead of rendered scenes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/persistence.h"
#include "distance/eged_fast.h"
#include "distance/sequence.h"
#include "distance/simd/dispatch.h"
#include "server/durable_engine.h"
#include "server/serve_options.h"
#include "server/sharded_engine.h"
#include "storage/catalog.h"
#include "storage/crc32c.h"
#include "storage/pager/paged_record_store.h"
#include "util/random.h"
#include "util/table.h"
#include "video/ppm_io.h"
#include "video/scenes.h"

namespace {

using namespace strg;

int Usage() {
  std::cerr <<
      "usage:\n"
      "  strgtool ingest <catalog> <lab|traffic> <name> <num_objects> [seed]\n"
      "  strgtool ingest-ppm <catalog> <name> <dir>\n"
      "  strgtool info <catalog>\n"
      "  strgtool stats <catalog>\n"
      "  strgtool query <catalog> <video> <og_index> [k]\n"
      "  strgtool serve [--shards=N] [--paged] [--cache-mb=N] <wal-dir>\n"
      "                 [lab|traffic <name> <num_objects> [seed]]\n"
      "  strgtool save <wal-dir> <catalog-out>\n"
      "  strgtool stat <page-file>\n"
      "  strgtool simd\n";
  return 2;
}

storage::Catalog LoadOrEmpty(const std::string& path) {
  auto loaded = storage::Catalog::TryLoadFromFile(path);
  return loaded.ok() ? std::move(loaded).value() : storage::Catalog{};
}

/// Loads into *out, printing the error itself. Returns false on failure.
bool MustLoadCatalog(const std::string& path, storage::Catalog* out) {
  auto loaded = storage::Catalog::TryLoadFromFile(path);
  if (!loaded.ok()) {
    std::cerr << "cannot load " << path << ": " << loaded.status().ToString()
              << "\n";
    return false;
  }
  *out = std::move(loaded).value();
  return true;
}

bool MustSaveCatalog(const storage::Catalog& catalog,
                     const std::string& path) {
  api::Status st = catalog.TrySaveToFile(path);
  if (!st.ok()) {
    std::cerr << "cannot save " << path << ": " << st.ToString() << "\n";
    return false;
  }
  return true;
}

int Ingest(const std::string& path, const std::string& kind,
           const std::string& name, int num_objects, uint64_t seed) {
  video::SceneParams sp;
  sp.num_objects = num_objects;
  sp.seed = seed;
  sp.noise_stddev = 0.0;
  if (kind == "traffic") sp.height = 100;
  video::SceneSpec scene =
      kind == "traffic" ? video::MakeTrafficScene(sp) : video::MakeLabScene(sp);

  api::PipelineParams pp;
  pp.segmenter.use_mean_shift = false;
  api::SegmentResult segment = api::ProcessScene(scene, pp);

  storage::Catalog catalog = LoadOrEmpty(path);
  catalog.AddSegment(api::ToCatalogSegment(name, segment));
  if (!MustSaveCatalog(catalog, path)) return 1;
  std::cout << "ingested '" << name << "': " << scene.num_frames
            << " frames -> " << segment.decomposition.object_graphs.size()
            << " OGs; catalog now has " << catalog.NumSegments()
            << " segment(s), " << catalog.TotalOgs() << " OGs\n";
  return 0;
}

int IngestPpm(const std::string& path, const std::string& name,
              const std::string& dir) {
  std::vector<video::Frame> frames = video::LoadPpmDirectory(dir);
  if (frames.empty()) {
    std::cerr << "no .ppm frames found in " << dir << "\n";
    return 1;
  }
  api::PipelineParams pp;  // mean-shift front end for real footage
  std::vector<api::SegmentResult> segments = api::ProcessFrames(frames, pp);
  storage::Catalog catalog = LoadOrEmpty(path);
  for (size_t i = 0; i < segments.size(); ++i) {
    std::string seg_name =
        segments.size() == 1 ? name : name + "#" + std::to_string(i);
    catalog.AddSegment(api::ToCatalogSegment(seg_name, segments[i]));
    std::cout << "  shot " << i << ": " << segments[i].num_frames
              << " frames, "
              << segments[i].decomposition.object_graphs.size() << " OGs\n";
  }
  if (!MustSaveCatalog(catalog, path)) return 1;
  std::cout << "ingested " << frames.size() << " frames as "
            << segments.size() << " segment(s)\n";
  return 0;
}

int Info(const std::string& path) {
  storage::Catalog catalog;
  if (!MustLoadCatalog(path, &catalog)) return 1;
  Table table({"video", "frames", "OGs", "BG regions", "frame size"});
  for (const auto& s : catalog.segments()) {
    table.AddRow({s.video_name, std::to_string(s.num_frames),
                  std::to_string(s.ogs.size()),
                  std::to_string(s.background.rag.NumNodes()),
                  std::to_string(s.frame_width) + "x" +
                      std::to_string(s.frame_height)});
  }
  table.Print(std::cout);
  return 0;
}

int Stats(const std::string& path) {
  storage::Catalog catalog;
  if (!MustLoadCatalog(path, &catalog)) return 1;
  api::VideoDatabase db = api::RestoreVideoDatabase(catalog);
  auto stats = db.index().ComputeStats();
  std::cout << "segments: " << stats.segments
            << "\nclusters: " << stats.clusters
            << "\nOGs: " << stats.ogs
            << "\nleaf occupancy: min " << stats.min_leaf << " mean "
            << FormatDouble(stats.mean_leaf, 1) << " max " << stats.max_leaf
            << "\ncovering radius: mean "
            << FormatDouble(stats.mean_covering_radius, 2) << " max "
            << FormatDouble(stats.max_covering_radius, 2)
            << "\nindex size: " << FormatBytes(db.IndexSizeBytes()) << "\n";
  return 0;
}

int Query(const std::string& path, const std::string& video, size_t og_index,
          size_t k) {
  storage::Catalog catalog;
  if (!MustLoadCatalog(path, &catalog)) return 1;
  const storage::CatalogSegment* segment = nullptr;
  for (const auto& s : catalog.segments()) {
    if (s.video_name == video) segment = &s;
  }
  if (segment == nullptr || og_index >= segment->ogs.size()) {
    std::cerr << "no such video / OG index\n";
    return 1;
  }

  index::StrgIndexParams params;
  params.num_clusters = 0;  // let BIC choose
  params.k_max = 10;
  api::VideoDatabase db = api::RestoreVideoDatabase(catalog, params);

  dist::FeatureScaling scaling;
  scaling.frame_width = segment->frame_width;
  scaling.frame_height = segment->frame_height;
  auto hits = db.FindSimilar(segment->ogs[og_index], k, scaling);

  std::cout << "query: OG " << og_index << " of '" << video << "' (starts at"
            << " frame " << segment->ogs[og_index].start_frame << ")\n";
  Table table({"rank", "video", "start frame", "length", "EGED_M"});
  for (size_t i = 0; i < hits.size(); ++i) {
    table.AddRow({std::to_string(i + 1), hits[i].video,
                  std::to_string(hits[i].start_frame),
                  std::to_string(hits[i].length),
                  FormatDouble(hits[i].distance, 2)});
  }
  table.Print(std::cout);
  return 0;
}

std::string RecordTypeName(uint8_t type) {
  switch (type) {
    case storage::kRecOgSequence: return "og-sequence";
    case storage::kRecBackground: return "background";
    case storage::kRecCatalogMeta: return "catalog-meta";
    case storage::kRecIndexNode: return "index-node";
    default: return "type-" + std::to_string(type);
  }
}

int Stat(const std::string& path) {
  auto computed = storage::ComputePageFileStats(path);
  if (!computed.ok()) {
    std::cerr << "cannot audit " << path << ": "
              << computed.status().ToString() << "\n";
    return 1;
  }
  const storage::PageFileStats& s = computed.value();
  std::cout << "page file: " << path
            << "\npage size: " << s.page_size << " bytes"
            << "\npages: " << s.num_pages << " (" << s.data_pages << " data, "
            << s.overflow_pages << " overflow, " << s.free_pages
            << " free, 1 header) — "
            << FormatBytes(s.num_pages * s.page_size) << " total"
            << "\nfree list: " << s.free_list_len << " page(s) walked, "
            << s.free_count << " claimed by header"
            << (s.free_list_len == s.free_count ? "" : "  <-- MISMATCH")
            << "\nroot record: ";
  if (s.root == storage::PageFile::kNoRoot) {
    std::cout << "(unset)";
  } else {
    std::cout << s.root << " (page " << (s.root >> 16) << " slot "
              << (s.root & 0xFFFF) << ")";
  }
  std::cout << "\ndead slots: " << s.dead_slots << "\n";

  Table table({"record type", "live records", "live bytes"});
  for (const auto& t : s.by_type) {
    table.AddRow({RecordTypeName(t.record_type),
                  std::to_string(t.live_records),
                  std::to_string(t.live_bytes)});
  }
  if (s.by_type.empty()) {
    std::cout << "(no live records)\n";
  } else {
    table.Print(std::cout);
  }
  return 0;
}

/// `strgtool simd`: the CLI face of the dispatch layers. Prints which tier
/// the host detected (and which is active, since STRG_SIMD_TIER /
/// STRG_FORCE_SCALAR can override it), then micro-times the two hot
/// kernels on every runnable tier; then the active CRC32C tier and the
/// time per 4 KiB page on every CRC tier the host runs. Timings are
/// best-of-5 means so a background blip does not masquerade as a speedup.
int Simd() {
  namespace simd = dist::simd;
  using Clock = std::chrono::steady_clock;
  std::cout << "detected tier: " << simd::TierName(simd::DetectedTier())
            << "\nactive tier:   " << simd::TierName(simd::ActiveTier())
            << "  (override: STRG_SIMD_TIER=scalar|avx2|neon, "
               "STRG_FORCE_SCALAR=1)\n"
            << "padded stride: " << simd::kPaddedDim << " doubles/point\n";

  constexpr size_t kLen = 64;
  Rng rng(7);
  auto make_seq = [&rng] {
    dist::Sequence s(kLen);
    dist::FeatureVec cur{};
    for (size_t k = 0; k < dist::kFeatureDim; ++k) {
      cur[k] = rng.Uniform(0.0, 10.0);
    }
    for (size_t i = 0; i < kLen; ++i) {
      for (size_t k = 0; k < dist::kFeatureDim; ++k) {
        cur[k] += rng.Gaussian(0.0, 0.5);
      }
      s[i] = cur;
    }
    return s;
  };
  const dist::Sequence a = make_seq();
  const dist::Sequence b = make_seq();
  dist::FlatSequence fa, fb;
  dist::EgedWorkspace ws;
  std::vector<double> out(kLen);
  double checksum = 0.0;

  auto time_us = [](auto&& fn) {
    constexpr int kReps = 400;
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 5; ++round) {
      const auto t0 = Clock::now();
      for (int r = 0; r < kReps; ++r) fn();
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count() /
          kReps;
      best = std::min(best, us);
    }
    return best;
  };

  const simd::Tier saved = simd::ActiveTier();
  double scalar_dp_us = 0.0;
  Table table({"tier", "point batch (us)", "exact EGED 64x64 (us)",
               "DP speedup"});
  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kNeon}) {
    const simd::KernelOps* ops = simd::OpsForTier(tier);
    if (ops == nullptr) continue;
    simd::ForceTier(tier);
    // Rebuild the flat forms under this tier so the whole pipeline — gap
    // costs included — runs through the kernel being timed.
    fa.Assign(a, {});
    fb.Assign(b, {});
    const double pd_us = time_us([&] {
      ops->point_distance_batch(fa.point(0), fb.points(), kLen, out.data());
      checksum += out[kLen - 1];
    });
    const double dp_us =
        time_us([&] { checksum += dist::EgedMetricFlat(fa, fb, &ws); });
    if (tier == simd::Tier::kScalar) scalar_dp_us = dp_us;
    table.AddRow({simd::TierName(tier), FormatDouble(pd_us, 3),
                  FormatDouble(dp_us, 2),
                  FormatDouble(scalar_dp_us / dp_us, 2) + "x"});
  }
  simd::ForceTier(saved);
  table.Print(std::cout);
  std::cout << "(checksum " << FormatDouble(checksum, 3)
            << " — identical on every tier by the bit-identity contract)\n";

  // CRC32C over one 4 KiB page, the pager's checksum unit.
  std::cout << "\ncrc32c tier:   " << storage::ActiveCrc32cTier().name
            << "  (override: STRG_FORCE_SCALAR=1)\n";
  std::string page(4096, '\0');
  for (char& c : page) c = static_cast<char>(rng.UniformInt(0, 255));
  uint32_t chain = 0;  // each timed call seeds the next: no dead code
  double portable_us = 0.0;
  Table crc_table({"crc32c tier", "us per 4 KiB page", "speedup", "crc"});
  for (const storage::Crc32cTier& tier : storage::Crc32cTiers()) {
    const double us = time_us(
        [&] { chain = tier.fn(page.data(), page.size(), chain); });
    if (portable_us == 0.0) portable_us = us;  // the portable tier is first
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x",
                  tier.fn(page.data(), page.size(), 0));
    crc_table.AddRow({tier.name, FormatDouble(us, 3),
                      FormatDouble(portable_us / us, 2) + "x", crc});
  }
  crc_table.Print(std::cout);
  std::cout << "(crc of one page — identical on every tier)\n";
  return 0;
}

server::DurableQueryEngine* MustOpenDurable(
    const std::string& wal_dir, const server::DurableEngineOptions& opts,
    std::unique_ptr<server::DurableQueryEngine>* holder) {
  auto opened = server::DurableQueryEngine::Open(wal_dir, {}, opts);
  if (!opened.ok()) {
    std::cerr << "cannot open " << wal_dir << ": "
              << opened.status().ToString() << "\n";
    return nullptr;
  }
  *holder = std::move(opened).value();
  return holder->get();
}

/// Mirrors the recovered catalog into an N-shard scatter-gather engine,
/// runs the sample probe through it, and prints its per-shard metrics —
/// the CLI face of ShardedQueryEngine.
void ServeSharded(const storage::Catalog& catalog,
                  const server::ServeOptions& serve) {
  server::ShardedQueryEngine sharded(index::StrgIndexParams{},
                                     serve.ToShardedOptions());
  for (const storage::CatalogSegment& s : catalog.segments()) {
    api::SegmentResult segment;
    segment.num_frames = s.num_frames;
    segment.frame_width = s.frame_width;
    segment.frame_height = s.frame_height;
    segment.decomposition.background = s.background;
    segment.decomposition.object_graphs = s.ogs;
    size_t shard = 0;
    sharded.AddVideo(s.video_name, segment, nullptr, &shard);
    std::cout << "  shard " << shard << " <- '" << s.video_name << "' ("
              << s.ogs.size() << " OGs)\n";
  }
  if (catalog.NumSegments() > 0 && !catalog.segments()[0].ogs.empty()) {
    const storage::CatalogSegment& s = catalog.segments()[0];
    dist::FeatureScaling scaling;
    scaling.frame_width = s.frame_width;
    scaling.frame_height = s.frame_height;
    server::QueryResult qr = sharded.Query(api::QuerySpec::Similar(
        dist::OgToSequence(s.ogs[0], scaling), 3));
    std::cout << "sample scatter-gather 3-NN ("
              << StatusCodeName(qr.status) << "): " << qr.hits.size()
              << " hit(s) across " << sharded.NumShards() << " shard(s)\n";
  }
  std::cout << sharded.MetricsJson() << "\n";
}

int Serve(const std::string& wal_dir, const std::string& kind,
          const std::string& name, int num_objects, uint64_t seed,
          const server::ServeOptions& serve) {
  const server::DurableEngineOptions opts = serve.ToDurableOptions();
  std::unique_ptr<server::DurableQueryEngine> holder;
  server::DurableQueryEngine* engine = MustOpenDurable(wal_dir, opts, &holder);
  if (engine == nullptr) return 1;

  const server::RecoveryStats& rec = engine->recovery();
  std::cout << "recovered from " << wal_dir << ": "
            << rec.snapshot_segments << " segment(s) from snapshot, "
            << rec.replayed_records << " WAL record(s) replayed"
            << (rec.tail_truncated ? " (torn tail truncated)" : "") << " in "
            << FormatDouble(rec.replay_seconds * 1e3, 1)
            << " ms; generation " << engine->Generation() << "\n";
  if (engine->paged_store() != nullptr) {
    std::cout << "paged mode: cache budget "
              << FormatBytes(engine->paged_store()->cache()->resident_bytes())
              << " over " << engine->paged_store()->cache()->num_frames()
              << " frames of " << opts.storage.page_size << " bytes\n";
  }

  if (!kind.empty()) {
    video::SceneParams sp;
    sp.num_objects = num_objects;
    sp.seed = seed;
    sp.noise_stddev = 0.0;
    if (kind == "traffic") sp.height = 100;
    video::SceneSpec scene = kind == "traffic" ? video::MakeTrafficScene(sp)
                                               : video::MakeLabScene(sp);
    api::PipelineParams pp;
    pp.segmenter.use_mean_shift = false;
    api::SegmentResult segment = api::ProcessScene(scene, pp);
    auto gen = engine->AddVideo(name, segment);
    if (!gen.ok()) {
      std::cerr << "ingest failed: " << gen.status().ToString() << "\n";
      return 1;
    }
    std::cout << "ingested '" << name << "' durably: "
              << segment.decomposition.object_graphs.size()
              << " OGs, now at generation " << gen.value() << "\n";
  }

  // Probe the serving path with the first stored OG so a restart visibly
  // answers from recovered state.
  const storage::Catalog& catalog = engine->catalog();
  if (catalog.NumSegments() > 0 && !catalog.segments()[0].ogs.empty()) {
    const storage::CatalogSegment& s = catalog.segments()[0];
    dist::FeatureScaling scaling;
    scaling.frame_width = s.frame_width;
    scaling.frame_height = s.frame_height;
    server::QueryResult qr = engine->Query(api::QuerySpec::Similar(
        dist::OgToSequence(s.ogs[0], scaling), 3));
    std::cout << "sample 3-NN query (" << StatusCodeName(qr.status)
              << "): " << qr.hits.size() << " hit(s) against generation "
              << qr.generation << "\n";
  }
  std::cout << engine->MetricsJson() << "\n";

  if (serve.shards > 1) {
    std::cout << "sharded serving (" << serve.shards << " shards):\n";
    ServeSharded(engine->catalog(), serve);
  }

  // Commit pending state (WAL fsync + paged-store header) so `strgtool
  // stat` on the page file sees this run's occupancy.
  api::Status st = engine->Sync();
  if (!st.ok()) {
    std::cerr << "sync failed: " << st.ToString() << "\n";
    return 1;
  }
  return 0;
}

int Save(const std::string& wal_dir, const std::string& out) {
  std::unique_ptr<server::DurableQueryEngine> holder;
  server::DurableQueryEngine* engine = MustOpenDurable(wal_dir, {}, &holder);
  if (engine == nullptr) return 1;
  api::Status st = engine->catalog().TrySaveToFile(out);
  if (!st.ok()) {
    std::cerr << "save failed: " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "exported " << engine->catalog().NumSegments()
            << " segment(s), " << engine->catalog().TotalOgs() << " OGs to "
            << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags may appear anywhere; everything else is positional. The flag
  // vocabulary lives in server::ServeOptions, shared with library callers.
  server::ServeOptions serve_opts;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (!serve_opts.ParseFlag(a)) args.push_back(std::move(a));
  }
  if (args.size() == 1 && args[0] == "simd") return Simd();
  if (args.size() < 2) return Usage();
  const std::string& cmd = args[0];
  const std::string& path = args[1];
  try {
    if (cmd == "ingest" && args.size() >= 5) {
      return Ingest(path, args[2], args[3], std::atoi(args[4].c_str()),
                    args.size() > 5
                        ? static_cast<uint64_t>(std::atoll(args[5].c_str()))
                        : 7u);
    }
    if (cmd == "ingest-ppm" && args.size() >= 4) {
      return IngestPpm(path, args[2], args[3]);
    }
    if (cmd == "info") return Info(path);
    if (cmd == "stats") return Stats(path);
    if (cmd == "stat") return Stat(path);
    if (cmd == "query" && args.size() >= 4) {
      return Query(path, args[2],
                   static_cast<size_t>(std::atoll(args[3].c_str())),
                   args.size() > 4
                       ? static_cast<size_t>(std::atoll(args[4].c_str()))
                       : 5u);
    }
    if (cmd == "serve") {
      if (args.size() >= 5) {
        return Serve(path, args[2], args[3], std::atoi(args[4].c_str()),
                     args.size() > 5
                         ? static_cast<uint64_t>(std::atoll(args[5].c_str()))
                         : 7u,
                     serve_opts);
      }
      if (args.size() == 2) return Serve(path, "", "", 0, 0, serve_opts);
      return Usage();
    }
    if (cmd == "save" && args.size() >= 3) return Save(path, args[2]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return Usage();
}
