// bench_e2e — end-to-end benchmark of the STRG video database.
//
// One process runs one workload. It builds the engine from a synthetic
// catalog (the set-up, repeated kSetupRepeats times and reported as the
// median), drives seeded open- and closed-loop load for --seconds, checks
// the answers against a brute-force oracle, and prints as its last stdout
// line
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates traced and untraced one-second slices, records spans and
// shadow re-executions in the traced ones, and prints the per-layer
// metrics instead (spans go to --trace-out). README.md has the workload
// table and the metric dictionary; BENCHMARK.json the regression bounds.
//
// Usage: bench_e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
//                  [--smoke] [--work-dir DIR] [--trace-out FILE]
//        bench_e2e --self-test   (the oracle against known right and wrong
//                                 answers; every run also does this first)

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ingest_stats.h"
#include "core/pipeline.h"
#include "distance/eged.h"
#include "distance/simd/dispatch.h"
#include "engine_adapter.h"
#include "synth/generator.h"
#include "trace.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "video/renderer.h"
#include "video/scenes.h"

namespace strg::e2e {
namespace {

constexpr size_t kVideos = 16;
constexpr size_t kKnnK = 10;
constexpr double kRangeRadius = 2.0;
constexpr int kSetupRepeats = 3;
constexpr size_t kClients = 4;
constexpr size_t kProbeQueries = 32;
constexpr size_t kHotQueries = 8;
constexpr size_t kShadowEvery = 10;  // traced reads re-run on their snapshot
constexpr double kTraceSliceS = 1.0;
/// The base catalog is the benchmark's dataset and stays the same in every
/// run: its BIC-chosen cluster structure moves kNN work by ~10% and insert
/// cost by up to 20x from one catalog to the next (clusters left above the
/// split threshold re-run the split test on every insert), which would bury
/// a change's effect in the seed-to-seed spread. --seed drives the traffic.
constexpr uint64_t kCatalogSeed = 1;

using Hit = api::VideoDatabase::QueryHit;
using Seconds = std::chrono::duration<double>;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// SplitMix64: derives independent seeds for each input stream of a run.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Sleeps to just before `due`, then spins to it, so arrivals keep their
/// Poisson spacing at sub-millisecond gaps.
void SleepUntil(Clock::time_point due) {
  const auto slack = std::chrono::microseconds(150);
  if (due - Clock::now() > slack) std::this_thread::sleep_until(due - slack);
  while (Clock::now() < due) {
  }
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool seconds_given = false;
  bool trace = false;
  bool smoke = false;
  bool self_test = false;  ///< only check the oracle against known cases
  std::string work_dir = "bench/e2e/build-e2e/work";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--smoke") {
      o->smoke = true;
    } else if (a == "--self-test") {
      o->self_test = true;
    } else if (a == "--workload" && value(&v)) {
      o->workload = v;
    } else if (a == "--seed" && value(&v)) {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      o->seconds = std::strtod(v.c_str(), nullptr);
      o->seconds_given = true;
    } else if (a == "--trace" && value(&v)) {
      o->trace = v == "1";
    } else if (a == "--work-dir" && value(&v)) {
      o->work_dir = v;
    } else if (a == "--trace-out" && value(&v)) {
      o->trace_out = v;
    } else {
      std::cerr << "bench_e2e: bad argument '" << a << "'\n";
      return false;
    }
  }
  if (o->smoke && !o->seconds_given) o->seconds = 3.0;
  return o->self_test || (!o->workload.empty() && o->seconds > 0.0);
}

// -------------------------------------------------------------- workloads

/// What runs after the open-loop phase, for the rest of the window.
enum class ClosedPhase { kNone, kReads, kWrites };

struct Workload {
  std::string name;
  Frontend frontend = Frontend::kDurable;
  bool paged = false;
  size_t items_per_pattern = 30;  ///< base catalog = 48 patterns x this
  double read_rate = 0.0;         ///< open-loop reads/s
  int knn_pct = 80;               ///< read mix; the rest after range is
  int range_pct = 15;             ///< whole-video temporal windows
  double hot_share = 0.0;         ///< reads drawn from kHotQueries repeats
  double write_rate = 0.0;        ///< open-loop OG writes/s (open phase)
  double open_share = 2.0 / 3.0;  ///< open-loop phase share of the window
  ClosedPhase closed = ClosedPhase::kNone;
  bool frames = false;  ///< ingest rendered videos for the whole window
  bool reopen = false;  ///< close and recover the engine after the window
};

std::optional<Workload> MakeWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "knn_serve") {
    w.frontend = Frontend::kSharded;
    w.read_rate = 1000.0;
    w.write_rate = 20.0;
    w.closed = ClosedPhase::kReads;
  } else if (name == "paged_cold") {
    w.paged = true;
    w.read_rate = 70.0;
    w.open_share = 0.85;
    w.knn_pct = 85;
    w.range_pct = 10;
    w.write_rate = 20.0;
    w.closed = ClosedPhase::kReads;
  } else if (name == "ingest_live") {
    w.items_per_pattern = 21;
    w.read_rate = 250.0;
    w.hot_share = 0.5;
    w.write_rate = 60.0;
    w.closed = ClosedPhase::kWrites;
    w.reopen = true;
  } else if (name == "frames_ingest") {
    w.items_per_pattern = 21;
    w.read_rate = 120.0;
    w.open_share = 1.0;
    w.frames = true;
  } else {
    return std::nullopt;
  }
  // The paged smoke catalog stays large enough to be 10x its cache.
  if (smoke) w.items_per_pattern = w.paged ? 12 : 6;
  return w;
}

// ----------------------------------------------------------------- inputs

/// Endless stream of fresh synthetic OGs: one batch of the generator's 48
/// moving patterns at a time, each batch from its own derived seed.
class SynthStream {
 public:
  explicit SynthStream(uint64_t seed) : seed_(seed), rng_(seed) {}

  core::Og Next() {
    if (pos_ == batch_.size()) {
      synth::SynthParams sp;
      sp.items_per_cluster = 1;
      sp.seed = Mix(seed_, batches_++);
      batch_ = synth::GenerateSyntheticOgs(sp).ogs;
      std::shuffle(batch_.begin(), batch_.end(), rng_);
      pos_ = 0;
    }
    return batch_[pos_++];
  }

  dist::Sequence NextSequence() {
    return dist::OgToSequence(Next(), synth::SynthScaling());
  }

 private:
  uint64_t seed_;
  uint64_t batches_ = 0;
  std::mt19937_64 rng_;
  std::vector<core::Og> batch_;
  size_t pos_ = 0;
};

struct Catalog {
  std::vector<std::string> names;
  std::vector<api::SegmentResult> segments;

  size_t NumOgs() const {
    size_t n = 0;
    for (const auto& s : segments) n += s.decomposition.object_graphs.size();
    return n;
  }
};

/// The base catalog: the Section 6.1 generator's 48 patterns x N items,
/// dealt round-robin over kVideos videos.
Catalog MakeCatalog(size_t items_per_pattern) {
  synth::SynthParams sp;
  sp.items_per_cluster = items_per_pattern;
  sp.seed = Mix(kCatalogSeed, 1);
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);
  Catalog c;
  c.segments.resize(kVideos);
  for (size_t v = 0; v < kVideos; ++v) {
    c.names.push_back("cam-" + std::to_string(v));
    c.segments[v].frame_width = 100;
    c.segments[v].frame_height = 100;
  }
  for (size_t i = 0; i < ds.ogs.size(); ++i) {
    api::SegmentResult& seg = c.segments[i % kVideos];
    seg.num_frames = std::max(
        seg.num_frames,
        static_cast<size_t>(ds.ogs[i].start_frame) + ds.ogs[i].Length());
    seg.decomposition.object_graphs.push_back(ds.ogs[i]);
  }
  return c;
}

/// One stored OG as a hit reports it, with its sequence for the oracle.
struct StoredOg {
  dist::Sequence sequence;
  std::string video;
  int start_frame = 0;
  size_t length = 0;
};

/// Appends a segment's OGs in the order the engine assigns their ids.
void AppendSegment(const std::string& video, const api::SegmentResult& seg,
                   std::vector<StoredOg>* out) {
  std::vector<dist::Sequence> seqs = seg.ObjectSequences();
  for (size_t i = 0; i < seqs.size(); ++i) {
    const core::Og& og = seg.decomposition.object_graphs[i];
    out->push_back({std::move(seqs[i]), video, og.start_frame, og.Length()});
  }
}

using Kind = api::QuerySpec::Kind;

/// One read of the workload's mix; `pct` is uniform in [0, 100).
api::QuerySpec MixedRead(const Workload& w, int pct, dist::Sequence probe,
                         const std::string& video) {
  if (pct < w.knn_pct) return api::QuerySpec::Similar(std::move(probe), kKnnK);
  if (pct < w.knn_pct + w.range_pct) {
    return api::QuerySpec::WithinRadius(std::move(probe), kRangeRadius);
  }
  return api::QuerySpec::Active(video, 0, 1 << 20);
}

struct PlannedRead {
  Clock::duration due{};  ///< offset from the window start
  api::QuerySpec spec;
};

/// Poisson arrivals at `rate` over `seconds`, with the workload's mix.
std::vector<PlannedRead> PlanReads(const Workload& w, double seconds,
                                   uint64_t seed, const Catalog& cat) {
  std::mt19937_64 rng(Mix(seed, 2));
  SynthStream queries(Mix(seed, 3));
  std::vector<dist::Sequence> hot;
  for (size_t i = 0; i < kHotQueries; ++i) hot.push_back(queries.NextSequence());
  std::exponential_distribution<double> gap(w.read_rate);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<size_t> video(0, cat.names.size() - 1);
  std::uniform_int_distribution<size_t> hot_pick(0, kHotQueries - 1);
  std::bernoulli_distribution is_hot(w.hot_share);

  std::vector<PlannedRead> plan;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    const int p = pct(rng);
    const std::string& v = cat.names[video(rng)];
    dist::Sequence probe;
    if (p < w.knn_pct + w.range_pct) {
      probe = w.hot_share > 0.0 && is_hot(rng) ? hot[hot_pick(rng)]
                                               : queries.NextSequence();
    }
    plan.push_back({std::chrono::duration_cast<Clock::duration>(Seconds(t)),
                    MixedRead(w, p, std::move(probe), v)});
  }
  return plan;
}

using Clip = std::vector<video::Frame>;

/// Lab and traffic scenes in alternation, rendered before the window (the
/// renderer is far slower than the pipeline and is not under test).
std::vector<Clip> RenderClips(uint64_t seed, size_t count, int objects) {
  std::vector<Clip> clips(count);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < count; ++i) {
    threads.emplace_back([&, i] {
      video::SceneParams sp;
      sp.num_objects = objects;
      sp.width = 160;
      sp.height = 120;
      sp.noise_stddev = 2.0;
      sp.seed = Mix(seed, 10 + i);
      const video::SceneSpec scene = i % 2 == 0 ? video::MakeLabScene(sp)
                                                : video::MakeTrafficScene(sp);
      for (int f = 0; f < scene.num_frames; ++f) {
        clips[i].push_back(video::RenderFrame(scene, f));
      }
    });
  }
  for (auto& t : threads) t.join();
  return clips;
}

/// FNV-1a over everything the pipeline extracted from a clip.
uint64_t Fingerprint(const api::SegmentResult& r) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  auto mixd = [&mix](double d) { mix(std::bit_cast<uint64_t>(d)); };
  mix(r.num_frames);
  mix(r.decomposition.object_graphs.size());
  for (const core::Og& og : r.decomposition.object_graphs) {
    mix(static_cast<uint64_t>(og.start_frame));
    mix(og.sequence.size());
    for (const graph::NodeAttr& a : og.sequence) {
      mixd(a.size);
      for (double c : a.color) mixd(c);
      mixd(a.cx);
      mixd(a.cy);
    }
  }
  return h;
}

// ---------------------------------------------------------------- records

struct ReadSlot {
  Clock::time_point due;
  Clock::time_point sent;       ///< Submit called
  Clock::time_point submitted;  ///< Submit returned
  Clock::time_point done;       ///< completion callback ran
  server::StatusCode status = server::StatusCode::kOk;
  bool traced = false;
  Snapshots snaps;  ///< shadow input (traced, sampled reads only)
  Clock::time_point shadow_start;
  ShadowRead shadow;
  bool shadowed = false;
};

struct WriteRecord {
  Clock::time_point due;  ///< == start in the closed-loop phase
  Clock::time_point start;
  Clock::time_point ack;
  bool ok = true;
  bool open_loop = true;
  bool during_compaction = false;
};

/// Sampled reads waiting for their shadow re-execution (traced run).
class ShadowQueue {
 public:
  void Push(size_t slot) STRG_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      queue_.push_back(slot);
    }
    cv_.NotifyOne();
  }
  /// Blocks for the next slot; false once closed and drained.
  bool Pop(size_t* slot) STRG_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cv_.Wait(mu_, [this]() STRG_REQUIRES(mu_) {
      return closed_ || !queue_.empty();
    });
    if (queue_.empty()) return false;
    *slot = queue_.front();
    queue_.pop_front();
    return true;
  }
  void Close() STRG_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

 private:
  Mutex mu_{LockRank::kUnranked};
  CondVar cv_;
  std::deque<size_t> queue_ STRG_GUARDED_BY(mu_);
  bool closed_ STRG_GUARDED_BY(mu_) = false;
};

/// Everything one run measured, handed to the metric derivations.
struct RunData {
  std::vector<double> setup_s;
  size_t base_ogs = 0;
  index::StrgIndex::Stats built;  ///< index right after set-up
  Clock::time_point origin;       ///< window start

  std::vector<PlannedRead> plan;
  std::vector<ReadSlot> reads;
  std::vector<WriteRecord> writes;
  size_t closed_reads = 0;
  double closed_reads_s = 0.0;
  size_t closed_writes = 0;
  double closed_writes_s = 0.0;

  // frames_ingest
  double frames_window_s = 0.0;
  std::vector<double> searchable_ms;
  std::vector<double> finish_ms;
  api::IngestStats ingest;

  uint64_t attempted = 0;
  uint64_t failed = 0;

  Counters before;  ///< engine counters at the window start
  Counters after;   ///< and at its end
  index::StrgIndex::Stats final_index;
  uint64_t disk_bytes = 0;
  size_t final_ogs = 0;
  uint64_t store_bytes = 0;
  uint64_t cache_bytes = 0;
  double recovery_s = 0.0;
  size_t recovered_ogs = 0;
  size_t replayed_records = 0;
  double peak_rss_mb = 0.0;
};

bool InTracedSlice(bool trace, Clock::time_point t, Clock::time_point origin) {
  if (!trace) return false;
  const double s = Seconds(t - origin).count();
  return static_cast<int64_t>(std::floor(s / kTraceSliceS)) % 2 == 0;
}

// ------------------------------------------------------------------- load

/// The open-loop dispatcher: one thread, Submit() with callbacks, each
/// request timed from its due time.
void DispatchReads(Engine* engine, RunData* run, bool trace,
                   ShadowQueue* shadows, std::atomic<size_t>* completed) {
  for (size_t i = 0; i < run->plan.size(); ++i) {
    const PlannedRead& p = run->plan[i];
    ReadSlot& slot = run->reads[i];
    slot.due = run->origin + p.due;
    SleepUntil(slot.due);
    slot.traced = InTracedSlice(trace, slot.due, run->origin);
    const bool sample = slot.traced && p.spec.kind != Kind::kActive &&
                        i % kShadowEvery == 0;
    if (sample) slot.snaps = engine->CurrentSnapshots();
    slot.sent = Clock::now();
    engine->Submit(p.spec, [&slot, i, sample, shadows,
                            completed](const server::QueryResult& r) {
      slot.done = Clock::now();
      slot.status = r.status;
      if (sample) shadows->Push(i);
      completed->fetch_add(1, std::memory_order_release);
    });
    slot.submitted = Clock::now();
  }
}

void RunShadows(RunData* run, ShadowQueue* shadows) {
  size_t i = 0;
  while (shadows->Pop(&i)) {
    ReadSlot& slot = run->reads[i];
    slot.shadow_start = Clock::now();
    slot.shadow = Engine::ShadowQuery(slot.snaps, run->plan[i].spec);
    slot.shadowed = true;
    slot.snaps.clear();
  }
}

Clock::time_point After(Clock::time_point t, double micros) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::micro>(micros));
}

/// Turns the traced reads' timestamps into spans: the request (from its
/// due time), Submit, the wait for the engine, and the shadow re-runs.
void RecordReadSpans(const RunData& run, Tracer* tracer) {
  static constexpr const char* kRoot[] = {"read.knn", "read.range",
                                          "read.active"};
  for (size_t i = 0; i < run.reads.size(); ++i) {
    const ReadSlot& s = run.reads[i];
    if (!s.traced) continue;
    Span root;
    root.name = kRoot[static_cast<int>(run.plan[i].spec.kind)];
    root.id = root.request = tracer->NewId();
    root.start_ns = ToNs(s.due);
    root.end_ns = ToNs(s.done);
    tracer->Record(root);
    tracer->Child("server.submit", root.id, s.sent, s.submitted);
    tracer->Child("server.wait", root.id, s.submitted, s.done);
    if (!s.shadowed) continue;
    Span core;
    core.name = "core.query";
    core.id = tracer->NewId();
    core.parent = core.request = root.id;
    core.start_ns = ToNs(s.shadow_start);
    core.end_ns = ToNs(After(s.shadow_start, s.shadow.core_us));
    core.counts[0] = s.shadow.dp_evals;
    core.counts[1] = s.shadow.lb_prunes;
    core.counts[2] = s.shadow.early_abandons;
    tracer->Record(core);
    tracer->Child("index.search", root.id,
                  After(s.shadow_start, s.shadow.core_us),
                  After(s.shadow_start, s.shadow.core_us + s.shadow.index_us));
  }
}

/// Writes one fresh OG into a random base video; the traced run re-applies
/// it to a clone of the pre-write snapshot of the owning shard.
struct Writer {
  Engine* engine;
  const Catalog* cat;
  const std::vector<int>* segment_ids;
  std::vector<StoredOg>* stored;
  RunData* run;
  bool trace;
  Tracer* tracer;
  SynthStream ogs;
  std::mt19937_64 rng;

  void WriteOne(Clock::time_point due, bool open_loop) {
    const size_t v = std::uniform_int_distribution<size_t>(
        0, cat->names.size() - 1)(rng);
    const core::Og og = ogs.Next();
    const bool traced = InTracedSlice(trace, due, run->origin);
    std::shared_ptr<const server::Snapshot> pre;
    if (traced) pre = engine->CurrentSnapshots()[engine->ShardOf(cat->names[v])];
    const uint64_t compactions0 = engine->Scrape().compactions;
    WriteRecord rec;
    rec.due = due;
    rec.open_loop = open_loop;
    rec.start = Clock::now();
    const api::Status st = engine->AddObjectGraph(
        (*segment_ids)[v], cat->names[v], og, synth::SynthScaling());
    rec.ack = Clock::now();
    rec.ok = st.ok();
    rec.during_compaction = engine->Scrape().compactions != compactions0;
    if (rec.ok) {
      stored->push_back({dist::OgToSequence(og, synth::SynthScaling()),
                         cat->names[v], og.start_frame, og.Length()});
    } else {
      std::cerr << "write failed: " << st.ToString() << "\n";
    }
    run->writes.push_back(rec);
    if (traced) {
      Span root;
      root.name = "write";
      root.id = root.request = tracer->NewId();
      root.start_ns = ToNs(due);
      root.end_ns = ToNs(rec.ack);
      tracer->Record(root);
      tracer->Child("server.add_object_graph", root.id, rec.start, rec.ack);
      const auto t0 = Clock::now();
      const ShadowWrite sw = Engine::ShadowAddObjectGraph(
          *pre, (*segment_ids)[v], cat->names[v], og, synth::SynthScaling());
      const auto t1 = After(t0, sw.clone_us);
      tracer->Child("server.publish_clone", root.id, t0, t1);
      tracer->Child("core.insert", root.id, t1, After(t1, sw.apply_us));
    }
  }
};

/// Closed-loop readers: kClients threads, each issuing its next read when
/// the previous one returns, until `until`.
void RunClosedReads(Engine* engine, const Workload& w, uint64_t seed,
                    const Catalog& cat, Clock::time_point until,
                    RunData* run) {
  std::vector<size_t> done(kClients, 0), failed(kClients, 0);
  std::vector<std::thread> clients;
  const auto start = Clock::now();
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SynthStream queries(Mix(seed, 100 + c));
      std::mt19937_64 rng(Mix(seed, 200 + c));
      std::uniform_int_distribution<int> pct(0, 99);
      std::uniform_int_distribution<size_t> video(0, cat.names.size() - 1);
      while (Clock::now() < until) {
        const int p = pct(rng);
        const std::string& v = cat.names[video(rng)];
        const server::StatusCode st =
            engine->Query(MixedRead(w, p, queries.NextSequence(), v)).status;
        if (st != server::StatusCode::kOk) {
          if (failed[c]++ == 0) {
            std::cerr << "closed-loop read failed: "
                      << server::StatusCodeName(st) << "\n";
          }
        }
        ++done[c];
      }
    });
  }
  for (auto& t : clients) t.join();
  run->closed_reads_s = Seconds(Clock::now() - start).count();
  for (size_t c = 0; c < kClients; ++c) {
    run->closed_reads += done[c];
    run->failed += failed[c];
  }
  run->attempted += run->closed_reads;
}

/// frames_ingest: one clip at a time through the pooled pipeline, then a
/// durable AddVideo; closed loop until `until`.
void IngestClips(Engine* engine, const std::vector<Clip>& clips,
                 Clock::time_point until, bool trace, Tracer* tracer,
                 std::vector<StoredOg>* stored,
                 std::vector<uint64_t>* fingerprints, RunData* run) {
  ThreadPool pool(4);
  api::PipelineParams params;
  params.pool = &pool;
  const auto start = Clock::now();
  for (size_t v = 0; Clock::now() < until; ++v) {
    const Clip& clip = clips[v % clips.size()];
    const std::string name = "live-" + std::to_string(v);
    const auto t0 = Clock::now();
    const bool traced = InTracedSlice(trace, t0, run->origin);
    Span root;
    if (traced) root.id = root.request = tracer->NewId();
    api::VideoPipeline pipeline(params);
    for (const video::Frame& f : clip) {
      const auto p0 = Clock::now();
      pipeline.PushFrame(f);
      if (traced) tracer->Child("core.push_frame", root.id, p0, Clock::now());
    }
    const auto f0 = Clock::now();
    const api::SegmentResult seg = pipeline.Finish();
    const auto f1 = Clock::now();
    std::shared_ptr<const server::Snapshot> pre;
    if (traced) pre = engine->CurrentSnapshots()[0];
    int segment_id = -1;
    const api::Status st = engine->AddVideo(name, seg, &segment_id);
    const auto t1 = Clock::now();
    ++run->attempted;
    if (!st.ok()) {
      ++run->failed;
      std::cerr << "AddVideo failed: " << st.ToString() << "\n";
      continue;
    }
    AppendSegment(name, seg, stored);
    if (v < clips.size()) (*fingerprints)[v] = Fingerprint(seg);
    run->searchable_ms.push_back(MsBetween(t0, t1));
    run->finish_ms.push_back(MsBetween(f0, f1));
    run->ingest += pipeline.stats();
    if (traced) {
      root.name = "video";
      root.start_ns = ToNs(t0);
      root.end_ns = ToNs(t1);
      tracer->Record(root);
      tracer->Child("core.finish", root.id, f0, f1);
      tracer->Child("server.add_video", root.id, f1, t1);
      const auto s0 = Clock::now();
      const ShadowWrite sw = Engine::ShadowAddVideo(*pre, name, seg);
      const auto s1 = After(s0, sw.clone_us);
      tracer->Child("server.publish_clone", root.id, s0, s1);
      tracer->Child("core.add_video", root.id, s1, After(s1, sw.apply_us));
    }
  }
  run->frames_window_s = Seconds(Clock::now() - start).count();
}

// ---------------------------------------------------------------- oracles
//
// Hits are compared by what a caller sees — video, start frame, length and
// the distance bit for bit — not by og id: recovery rebuilds the catalog
// segment by segment (compaction folds streamed OGs into their segment),
// which renumbers the ids of OGs streamed in after their video.

struct ProbeAnswers {
  std::vector<std::vector<Hit>> knn;
  std::vector<std::vector<Hit>> range;
};

bool HitLess(const Hit& a, const Hit& b) {
  return std::tie(a.distance, a.video, a.start_frame, a.length) <
         std::tie(b.distance, b.video, b.start_frame, b.length);
}

bool SameHit(const Hit& a, const Hit& b) {
  return std::bit_cast<uint64_t>(a.distance) ==
             std::bit_cast<uint64_t>(b.distance) &&
         a.video == b.video && a.start_frame == b.start_frame &&
         a.length == b.length;
}

ProbeAnswers AskProbes(Engine* engine,
                       const std::vector<dist::Sequence>& probes,
                       uint64_t* failed) {
  ProbeAnswers out;
  for (const dist::Sequence& q : probes) {
    server::QueryResult k = engine->Query(api::QuerySpec::Similar(q, kKnnK));
    server::QueryResult r =
        engine->Query(api::QuerySpec::WithinRadius(q, kRangeRadius));
    if (k.status != server::StatusCode::kOk ||
        r.status != server::StatusCode::kOk) {
      ++*failed;
    }
    std::sort(k.hits.begin(), k.hits.end(), HitLess);
    std::sort(r.hits.begin(), r.hits.end(), HitLess);
    out.knn.push_back(std::move(k.hits));
    out.range.push_back(std::move(r.hits));
  }
  return out;
}

/// Brute-force EGED_M scan of every stored OG on kClients threads: per
/// probe, every OG as a hit, sorted.
std::vector<std::vector<Hit>> BruteForce(
    const std::vector<dist::Sequence>& probes,
    const std::vector<StoredOg>& stored) {
  std::vector<std::vector<Hit>> all(probes.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      const dist::EgedMetricDistance metric;
      for (size_t p = t; p < probes.size(); p += kClients) {
        all[p].reserve(stored.size());
        for (size_t id = 0; id < stored.size(); ++id) {
          const StoredOg& og = stored[id];
          all[p].push_back({og.video, id, og.start_frame, og.length,
                            metric(probes[p], og.sequence)});
        }
        std::sort(all[p].begin(), all[p].end(), HitLess);
      }
    });
  }
  for (auto& t : threads) t.join();
  return all;
}

/// The engine's hits (sorted by HitLess) must equal the oracle's (every
/// stored OG, sorted the same way) rank by rank, distances bit for bit.
/// Only where the kNN cut falls inside a run of equal distances may the
/// engine pick other OGs of that run, each at most as often as the run
/// holds it.
bool MatchesOracle(const std::vector<Hit>& got, const std::vector<Hit>& all,
                   bool knn, std::string* why) {
  size_t want_n = 0;
  if (knn) {
    want_n = std::min(kKnnK, all.size());
  } else {
    while (want_n < all.size() && all[want_n].distance <= kRangeRadius) {
      ++want_n;
    }
  }
  if (got.size() != want_n) {
    *why = "hit count " + std::to_string(got.size()) + " != oracle " +
           std::to_string(want_n);
    return false;
  }
  auto differs = [&](size_t i) {
    *why = "hit differs at rank " + std::to_string(i) + ": got " +
           got[i].video + " d=" + std::to_string(got[i].distance) +
           ", oracle " + all[i].video + " d=" +
           std::to_string(all[i].distance);
    return false;
  };
  auto same_distance = [](const Hit& a, const Hit& b) {
    return std::bit_cast<uint64_t>(a.distance) ==
           std::bit_cast<uint64_t>(b.distance);
  };
  // The run of oracle hits tied with the last one kept: [tie_begin, tie_end).
  size_t tie_begin = want_n, tie_end = want_n;
  if (knn && want_n > 0) {
    const Hit& cut = all[want_n - 1];
    tie_begin = want_n - 1;
    while (tie_begin > 0 && same_distance(all[tie_begin - 1], cut)) {
      --tie_begin;
    }
    while (tie_end < all.size() && same_distance(all[tie_end], cut)) ++tie_end;
  }
  for (size_t i = 0; i < tie_begin; ++i) {
    if (!SameHit(got[i], all[i])) return differs(i);
  }
  // Inside the tie run both lists are sorted, so the engine's picks must be
  // a subsequence of the run: every pick is a stored OG, none twice.
  for (size_t i = tie_begin, j = tie_begin; i < want_n; ++i, ++j) {
    if (!same_distance(got[i], all[i])) return differs(i);
    while (j < tie_end && !SameHit(got[i], all[j])) ++j;
    if (j == tie_end) return differs(i);
  }
  return true;
}

/// Cases the oracle must accept and reject; run before every measurement so
/// a weakened oracle cannot pass unnoticed.
bool OracleSelfTest() {
  auto hit = [](const char* video, int start, double d) {
    return Hit{video, 0, start, 5, d};
  };
  // Stored OGs at distances 1..8, three at 10 and one at 11, sorted as the
  // oracle sorts: ranks 8-10 tie across the kNN cut (k = 10).
  std::vector<Hit> all;
  for (int d = 1; d <= 8; ++d) all.push_back(hit("a", d, d));
  for (const char* v : {"a", "b", "c"}) all.push_back(hit(v, 10, 10));
  all.push_back(hit("a", 11, 11));
  const std::vector<Hit> exact(all.begin(), all.begin() + kKnnK);
  std::vector<Hit> other_tie = exact;
  other_tie[9] = all[10];  // another OG at the cut distance
  std::vector<Hit> wrong_last = exact;
  wrong_last[9] = all[11];  // the 11th neighbour in place of the 10th
  std::vector<Hit> duplicate = exact;
  duplicate[9] = all[8];  // one tied OG twice
  std::vector<Hit> swapped_inside = exact;
  swapped_inside[3].video = "z";  // a wrong OG below the cut
  std::vector<Hit> off_by_ulp = exact;
  off_by_ulp[0].distance = std::nextafter(off_by_ulp[0].distance, 2.0);
  std::vector<Hit> unknown_tie = exact;
  unknown_tie[9].video = "d";  // right distance, not a stored OG
  std::vector<Hit> range_all;
  for (int d = 1; d <= 3; ++d) range_all.push_back(hit("a", d, d * 0.75));
  const std::vector<Hit> range_exact(range_all.begin(), range_all.begin() + 2);
  const std::vector<Hit> range_short(range_all.begin(), range_all.begin() + 1);

  struct Case {
    const char* label;
    const std::vector<Hit>* got;
    const std::vector<Hit>* all;
    bool knn;
    bool want;
  };
  const Case cases[] = {
      {"exact kNN", &exact, &all, true, true},
      {"other OG at the cut", &other_tie, &all, true, true},
      {"wrong last hit", &wrong_last, &all, true, false},
      {"duplicate hit", &duplicate, &all, true, false},
      {"wrong OG below the cut", &swapped_inside, &all, true, false},
      {"distance off by one ulp", &off_by_ulp, &all, true, false},
      {"unknown OG at the cut", &unknown_tie, &all, true, false},
      {"exact range", &range_exact, &range_all, false, true},
      {"range hit missing", &range_short, &range_all, false, false},
  };
  bool ok = true;
  for (const Case& c : cases) {
    std::string why;
    if (MatchesOracle(*c.got, *c.all, c.knn, &why) != c.want) {
      std::cerr << "oracle self-test FAILED: " << c.label << "\n";
      ok = false;
    }
  }
  return ok;
}

bool CheckProbes(const ProbeAnswers& got,
                 const std::vector<dist::Sequence>& probes,
                 const std::vector<StoredOg>& stored,
                 const std::string& label) {
  const std::vector<std::vector<Hit>> all = BruteForce(probes, stored);
  for (size_t p = 0; p < probes.size(); ++p) {
    std::string why;
    if (!MatchesOracle(got.knn[p], all[p], true, &why) ||
        !MatchesOracle(got.range[p], all[p], false, &why)) {
      std::cerr << "oracle FAILED (" << label << ", probe " << p
                << "): " << why << "\n";
      return false;
    }
  }
  return true;
}

bool SameAnswers(const ProbeAnswers& a, const ProbeAnswers& b) {
  auto same = [](const std::vector<Hit>& x, const std::vector<Hit>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(), SameHit);
  };
  for (size_t p = 0; p < a.knn.size(); ++p) {
    if (!same(a.knn[p], b.knn[p]) || !same(a.range[p], b.range[p])) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Open-loop read latencies (ms, from the due time) of `kind`; `traced`
/// selects slices (nullopt = all).
std::vector<double> ReadLatencies(const RunData& run, Kind kind,
                                  std::optional<bool> traced = std::nullopt) {
  std::vector<double> out;
  for (size_t i = 0; i < run.reads.size(); ++i) {
    const ReadSlot& s = run.reads[i];
    if (run.plan[i].spec.kind != kind || s.status != server::StatusCode::kOk) {
      continue;
    }
    if (traced.has_value() && s.traced != *traced) continue;
    out.push_back(MsBetween(s.due, s.done));
  }
  return out;
}

std::vector<double> OpenWriteLatencies(const RunData& run) {
  std::vector<double> out;
  for (const WriteRecord& w : run.writes) {
    if (w.ok && w.open_loop) out.push_back(MsBetween(w.due, w.ack));
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const Workload& w, const RunData& run) {
  const std::vector<double> knn = ReadLatencies(run, Kind::kSimilar);
  if (SamplesBeyond(knn.size(), 75.0) < 10) {
    std::cerr << "note: knn_p75_ms rests on " << knn.size()
              << " samples (< 10 beyond p75)\n";
  }
  double capacity = 0.0;
  if (w.frames) {
    capacity = Ratio(static_cast<double>(run.ingest.frames_segmented),
                     run.frames_window_s);
  } else if (w.closed == ClosedPhase::kWrites) {
    capacity = Ratio(static_cast<double>(run.closed_writes),
                     run.closed_writes_s);
  } else {
    capacity = Ratio(static_cast<double>(run.closed_reads),
                     run.closed_reads_s);
  }
  return {
      {"setup_s", Median(run.setup_s), "s"},
      {"knn_p50_ms", Percentile(knn, 50.0), "ms"},
      {"knn_p75_ms", Percentile(knn, 75.0), "ms"},
      {"capacity_per_s", capacity, "1/s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
}

/// Per-layer metrics: span durations and the counts recorded on them,
/// plus the engine's counter deltas over the window.
std::vector<Metric> LayerMetrics(const Workload& w, const RunData& run,
                                 const std::vector<Span>& spans) {
  struct Request {
    const Span* root = nullptr;
    const Span* submit = nullptr;
    const Span* core = nullptr;
    const Span* index = nullptr;
  };
  std::unordered_map<uint64_t, Request> requests;
  std::vector<double> publish_ms, write_us;
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    Request& r = requests[s.request];
    if (s.parent == 0) {
      r.root = &s;
    } else if (name == "server.submit") {
      r.submit = &s;
    } else if (name == "core.query") {
      r.core = &s;
    } else if (name == "index.search") {
      r.index = &s;
    } else if (name == "server.publish_clone") {
      publish_ms.push_back(s.Micros() / 1e3);
    } else if (name == "core.insert" || name == "core.add_video") {
      write_us.push_back(s.Micros());
    }
  }
  std::vector<double> submit_us, self_ms, core_knn_us, index_knn_us,
      index_range_us;
  double dp = 0, lb = 0, abandons = 0, knn_shadows = 0;
  for (const auto& [id, r] : requests) {
    if (r.root == nullptr || r.submit == nullptr) continue;
    submit_us.push_back(r.submit->Micros());
    if (r.core == nullptr || r.index == nullptr) continue;
    // Server self time: Submit through completion, minus the core work.
    self_ms.push_back(
        static_cast<double>(r.root->end_ns - r.submit->start_ns) / 1e6 -
        r.core->Micros() / 1e3);
    if (std::string_view(r.root->name) == "read.knn") {
      core_knn_us.push_back(r.core->Micros());
      index_knn_us.push_back(r.index->Micros());
      dp += static_cast<double>(r.core->counts[0]);
      lb += static_cast<double>(r.core->counts[1]);
      abandons += static_cast<double>(r.core->counts[2]);
      knn_shadows += 1;
    } else {
      index_range_us.push_back(r.index->Micros());
    }
  }

  const Counters& a = run.before;
  const Counters& b = run.after;
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  size_t overloaded = 0, open_reads = run.reads.size();
  for (const ReadSlot& s : run.reads) {
    if (s.status == server::StatusCode::kOverloaded) ++overloaded;
  }
  const double writes = static_cast<double>(run.writes.size()) +
                        static_cast<double>(run.searchable_ms.size());
  std::vector<double> all_write_ms, compaction_write_ms;
  for (const WriteRecord& wr : run.writes) {
    all_write_ms.push_back(MsBetween(wr.start, wr.ack));
    if (wr.during_compaction) {
      compaction_write_ms.push_back(MsBetween(wr.start, wr.ack));
    }
  }
  const double queries = static_cast<double>(open_reads + run.closed_reads);
  std::vector<double> late_ms;
  for (const ReadSlot& s : run.reads) late_ms.push_back(MsBetween(s.due, s.sent));

  const double frames = static_cast<double>(run.ingest.frames_segmented);
  auto sum_us = [](const std::vector<double>& ms) {
    double sum = 0;
    for (double v : ms) sum += v;
    return 1e3 * sum;
  };
  const double searchable_us = sum_us(run.searchable_ms);
  const double finish_us = sum_us(run.finish_ms);
  const double pager_hits = static_cast<double>(b.pager.hits - a.pager.hits);
  const double pager_misses =
      static_cast<double>(b.pager.misses - a.pager.misses);

  const cluster::ClusterStats& cs = run.built.clustering;
  const double knn_traced = Median(ReadLatencies(run, Kind::kSimilar, true));
  const double knn_untraced =
      Median(ReadLatencies(run, Kind::kSimilar, false));

  return {
      {"server.submit_us_p50", Median(submit_us), "us"},
      {"server.self_ms_p50", Median(self_ms), "ms"},
      {"server.self_ms_p99", Percentile(self_ms, 99.0), "ms"},
      {"server.queue_depth_max", static_cast<double>(b.max_queue_depth),
       "count"},
      {"server.cache_hit_rate", Ratio(hits, hits + misses), "ratio"},
      {"server.tau_seeded_leg_ratio",
       Ratio(static_cast<double>(b.tau_legs - a.tau_legs),
             static_cast<double>(b.legs - a.legs)),
       "ratio"},
      {"server.write_ms_p50",
       Median(w.frames ? run.searchable_ms : OpenWriteLatencies(run)), "ms"},
      {"server.publish_ms_p50", Median(publish_ms), "ms"},
      {"server.overloaded_ratio",
       Ratio(static_cast<double>(overloaded), static_cast<double>(open_reads)),
       "ratio"},
      {"server.range_ms_p50", Median(ReadLatencies(run, Kind::kRange)),
       "ms"},
      {"server.active_ms_p50", Median(ReadLatencies(run, Kind::kActive)),
       "ms"},
      {"core.query_us_p50", Median(core_knn_us), "us"},
      {"core.query_us_p99", Percentile(core_knn_us, 99.0), "us"},
      {"core.write_us_p50", Median(write_us), "us"},
      {"core.queue_stall_ratio",
       Ratio(static_cast<double>(run.ingest.queue_full_stalls), frames),
       "ratio"},
      {"core.finish_share", Ratio(finish_us, searchable_us), "ratio"},
      {"segment.frames_per_cpu_s",
       Ratio(frames, static_cast<double>(run.ingest.segment_us) / 1e6), "1/s"},
      {"strg.track_frames_per_s",
       Ratio(frames, static_cast<double>(run.ingest.track_us) / 1e6), "1/s"},
      {"strg.decompose_share",
       Ratio(static_cast<double>(run.ingest.decompose_us), searchable_us),
       "ratio"},
      {"cluster.distances_per_og",
       Ratio(static_cast<double>(cs.TotalDistances()),
             static_cast<double>(run.base_ogs)),
       "count"},
      {"index.knn_us_p50", Median(index_knn_us), "us"},
      {"index.range_us_p50", Median(index_range_us), "us"},
      {"index.max_leaf", static_cast<double>(run.final_index.max_leaf),
       "count"},
      {"index.mean_covering_radius", run.final_index.mean_covering_radius,
       "eged"},
      {"distance.dp_per_knn", Ratio(dp, knn_shadows), "count"},
      {"distance.lb_prune_ratio", Ratio(lb, lb + dp), "ratio"},
      {"distance.abandon_ratio", Ratio(abandons, dp), "ratio"},
      {"storage.wal.syncs_per_write",
       Ratio(static_cast<double>(b.wal_syncs - a.wal_syncs), writes), "count"},
      {"storage.wal.bytes_per_write",
       Ratio(static_cast<double>(b.wal_bytes - a.wal_bytes), writes), "bytes"},
      {"storage.compactions",
       static_cast<double>(b.compactions - a.compactions), "count"},
      {"storage.compaction_write_slowdown",
       Ratio(Median(compaction_write_ms), Median(all_write_ms)), "ratio"},
      {"storage.replay_ogs_per_s",
       Ratio(static_cast<double>(run.recovered_ogs), run.recovery_s), "1/s"},
      {"storage.replayed_records", static_cast<double>(run.replayed_records),
       "count"},
      {"storage.disk_bytes_per_og",
       Ratio(static_cast<double>(run.disk_bytes),
             static_cast<double>(run.final_ogs)),
       "bytes"},
      {"storage.pager.hit_rate", Ratio(pager_hits, pager_hits + pager_misses),
       "ratio"},
      {"storage.pager.misses_per_query", Ratio(pager_misses, queries),
       "count"},
      {"storage.pager.evictions_per_query",
       Ratio(static_cast<double>(b.pager.evictions - a.pager.evictions),
             queries),
       "count"},
      {"storage.pager.data_to_cache_ratio",
       Ratio(static_cast<double>(run.store_bytes),
             static_cast<double>(run.cache_bytes)),
       "ratio"},
      {"loadgen.late_p99_ms", Percentile(late_ms, 99.0), "ms"},
      {"trace.overhead_pct", 100.0 * (Ratio(knn_traced, knn_untraced) - 1.0),
       "%"},
  };
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" +
           FormatNumber(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

// -------------------------------------------------------------------- run

int Run(const Options& opt) {
  const std::optional<Workload> maybe_w = MakeWorkload(opt.workload, opt.smoke);
  if (!maybe_w) {
    std::cerr << "bench_e2e: unknown workload '" << opt.workload
              << "' (knn_serve, ingest_live, paged_cold, frames_ingest)\n";
    return 2;
  }
  const Workload& w = *maybe_w;
  const double S = opt.seconds;
  RunData run;
  bool correct = true;
  auto fail = [&](const std::string& what) {
    std::cerr << "CHECK FAILED: " << what << "\n";
    correct = false;
  };

  // ---- inputs: the fixed catalog, and traffic derived from --seed ----
  const Catalog cat = MakeCatalog(w.items_per_pattern);
  run.base_ogs = cat.NumOgs();
  std::vector<StoredOg> stored;  // every acked OG, in engine id order
  for (size_t v = 0; v < kVideos; ++v) {
    AppendSegment(cat.names[v], cat.segments[v], &stored);
  }
  std::vector<dist::Sequence> probes;
  {
    SynthStream probe_stream(Mix(opt.seed, 4));
    for (size_t i = 0; i < kProbeQueries; ++i) {
      probes.push_back(probe_stream.NextSequence());
    }
  }
  const double open_s = S * w.open_share;
  run.plan = PlanReads(w, open_s, opt.seed, cat);
  run.reads.resize(run.plan.size());
  std::vector<Clip> clips;
  if (w.frames) {
    clips = RenderClips(opt.seed, opt.smoke ? 2 : 8, opt.smoke ? 4 : 12);
  }

  // ---- set-up: engine open + base catalog build, repeated ----
  const std::string dir = opt.work_dir + "/" + w.name + "-" +
                          std::to_string(::getpid());
  ThreadPool build_pool(4);
  EngineConfig cfg;
  cfg.frontend = w.frontend;
  cfg.dir = dir;
  cfg.build_pool = &build_pool;
  if (w.paged) {
    cfg.storage.paged = true;
    cfg.storage.page_size = 4096;
    cfg.storage.cache_bytes = opt.smoke ? (64u << 10) : (128u << 10);
  }
  std::unique_ptr<Engine> engine;
  std::vector<int> segment_ids(kVideos, -1);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const auto t0 = Clock::now();
    auto opened = Engine::Open(cfg);
    if (!opened.ok()) {
      std::cerr << "open failed: " << opened.status().ToString() << "\n";
      return 1;
    }
    engine = std::move(opened).value();
    for (size_t v = 0; v < kVideos; ++v) {
      const api::Status st =
          engine->AddVideo(cat.names[v], cat.segments[v], &segment_ids[v]);
      if (!st.ok()) {
        std::cerr << "base ingest failed: " << st.ToString() << "\n";
        return 1;
      }
    }
    run.setup_s.push_back(Seconds(Clock::now() - t0).count());
  }
  run.built = engine->IndexStats();

  // ---- the measured window ----
  Tracer tracer;
  ShadowQueue shadows;
  std::atomic<size_t> completed{0};
  Writer writer{engine.get(), &cat, &segment_ids, &stored, &run, opt.trace,
                &tracer, SynthStream(Mix(opt.seed, 5)),
                std::mt19937_64(Mix(opt.seed, 6))};
  std::vector<uint64_t> fingerprints(clips.size(), 0);

  run.before = engine->Scrape();
  run.origin = Clock::now() + std::chrono::milliseconds(20);
  const auto open_end = run.origin + std::chrono::duration_cast<Clock::duration>(
                                         Seconds(open_s));
  const auto window_end =
      run.origin + std::chrono::duration_cast<Clock::duration>(Seconds(S));

  std::thread shadow_thread;
  if (opt.trace) shadow_thread = std::thread([&] { RunShadows(&run, &shadows); });
  std::thread dispatcher([&] {
    DispatchReads(engine.get(), &run, opt.trace, &shadows, &completed);
  });
  std::thread load;  // the one writer, or the clip ingester
  if (w.frames) {
    load = std::thread([&] {
      IngestClips(engine.get(), clips, window_end, opt.trace, &tracer, &stored,
                  &fingerprints, &run);
    });
  } else if (w.write_rate > 0.0) {
    load = std::thread([&] {
      std::mt19937_64 rng(Mix(opt.seed, 7));
      std::exponential_distribution<double> gap(w.write_rate);
      for (double t = gap(rng); t < open_s; t += gap(rng)) {
        const auto due = run.origin + std::chrono::duration_cast<Clock::duration>(
                                          Seconds(t));
        SleepUntil(due);
        writer.WriteOne(due, true);
      }
      if (w.closed == ClosedPhase::kWrites) {
        SleepUntil(open_end);
        const auto start = Clock::now();
        size_t n = 0;
        for (; Clock::now() < window_end; ++n) writer.WriteOne(Clock::now(), false);
        run.closed_writes = n;
        run.closed_writes_s = Seconds(Clock::now() - start).count();
      }
    });
  }
  if (w.closed == ClosedPhase::kReads) {
    SleepUntil(open_end);
    RunClosedReads(engine.get(), w, opt.seed, cat, window_end, &run);
  }
  dispatcher.join();
  if (load.joinable()) load.join();
  for (int spins = 0; completed.load(std::memory_order_acquire) <
                      run.reads.size();
       ++spins) {
    if (spins > 120000) {
      std::cerr << "reads never completed\n";
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  shadows.Close();
  if (shadow_thread.joinable()) shadow_thread.join();
  run.after = engine->Scrape();

  // ---- accounting ----
  run.attempted += run.reads.size() + run.writes.size();
  for (const ReadSlot& s : run.reads) {
    if (s.status != server::StatusCode::kOk) ++run.failed;
  }
  for (const WriteRecord& wr : run.writes) {
    if (!wr.ok) ++run.failed;
  }
  run.final_index = engine->IndexStats();
  run.disk_bytes = engine->DiskBytes();
  run.final_ogs = engine->NumObjectGraphs();
  std::tie(run.store_bytes, run.cache_bytes) = engine->PagedBytes();
  run.peak_rss_mb = PeakRssMb();

  // ---- oracles ----
  if (run.final_ogs != stored.size()) {
    fail("engine holds " + std::to_string(run.final_ogs) + " OGs, expected " +
         std::to_string(stored.size()));
  }
  uint64_t probe_failed = 0;
  const ProbeAnswers before = AskProbes(engine.get(), probes, &probe_failed);
  if (!CheckProbes(before, probes, stored, "live engine")) correct = false;
  if (w.paged && Ratio(static_cast<double>(run.store_bytes),
                       static_cast<double>(run.cache_bytes)) < 10.0) {
    fail("paged leaf store is less than 10x the buffer cache");
  }
  if (w.frames) {
    const size_t ingested = std::min(clips.size(), run.searchable_ms.size());
    const size_t pick = ingested == 0 ? 0 : opt.seed % ingested;
    api::VideoPipeline serial;  // no pool: the reference path
    for (const video::Frame& f : clips[pick]) serial.PushFrame(f);
    if (Fingerprint(serial.Finish()) != fingerprints[pick]) {
      fail("pooled pipeline output differs from the serial pipeline");
    }
  }
  if (w.reopen) {
    engine.reset();
    const auto t0 = Clock::now();
    auto reopened = Engine::Open(cfg);
    run.recovery_s = Seconds(Clock::now() - t0).count();
    if (!reopened.ok()) {
      fail("reopen: " + reopened.status().ToString());
    } else {
      engine = std::move(reopened).value();
      run.recovered_ogs = engine->NumObjectGraphs();
      run.replayed_records = engine->Recovery()->replayed_records;
      if (run.recovered_ogs != stored.size()) {
        fail("recovered " + std::to_string(run.recovered_ogs) +
             " OGs, acked " + std::to_string(stored.size()));
      }
      const ProbeAnswers after = AskProbes(engine.get(), probes, &probe_failed);
      if (!CheckProbes(after, probes, stored, "reopened engine")) {
        correct = false;
      }
      if (!SameAnswers(before, after)) {
        fail("probe answers changed across close and reopen");
      }
    }
  }
  if (probe_failed != 0) fail("probe queries failed");
  engine.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // ---- report ----
  RecordReadSpans(run, &tracer);
  const std::vector<Span> spans = tracer.Take();
  std::cout << "# context {\"workload\":\"" << w.name << "\",\"seed\":"
            << opt.seed << ",\"seconds\":" << S << ",\"trace\":"
            << (opt.trace ? 1 : 0) << ",\"smoke\":" << (opt.smoke ? 1 : 0)
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"simd_tier\":\""
            << dist::simd::TierName(dist::simd::ActiveTier())
            << "\",\"compiler\":\"" << __VERSION__ << "\",\"base_ogs\":"
            << run.base_ogs << ",\"final_ogs\":" << run.final_ogs
            << ",\"open_reads\":" << run.reads.size() << ",\"writes\":"
            << run.writes.size() << ",\"videos\":" << run.searchable_ms.size()
            << ",\"closed_reads\":" << run.closed_reads
            << ",\"closed_writes\":" << run.closed_writes
            << ",\"knn_samples\":" << ReadLatencies(run, Kind::kSimilar).size()
            << ",\"recovery_s\":" << run.recovery_s << ",\"setups_s\":[";
  for (size_t i = 0; i < run.setup_s.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << run.setup_s[i];
  }
  std::cout << "]}\n";
  if (opt.trace && !opt.trace_out.empty()) {
    const std::string header = "\"workload\":\"" + w.name +
                               "\",\"seed\":" + std::to_string(opt.seed);
    if (!WriteTraceJson(opt.trace_out, header, spans, run.origin)) {
      std::cerr << "cannot write " << opt.trace_out << "\n";
    }
  }
  const std::vector<Metric> metrics =
      opt.trace ? LayerMetrics(w, run, spans) : EndToEndMetrics(w, run);
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << FormatNumber(m.value) << " "
              << m.unit << "\n";
  }
  PrintResult(correct, run.attempted, run.failed, metrics);
  return correct && run.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace strg::e2e

int main(int argc, char** argv) {
  strg::e2e::Options opt;
  if (!strg::e2e::ParseArgs(argc, argv, &opt)) {
    std::cerr << "usage: bench_e2e --workload NAME --seed N [--seconds S] "
                 "[--trace 0|1] [--smoke] [--work-dir DIR] [--trace-out F]\n"
                 "       bench_e2e --self-test\n";
    return 2;
  }
  if (!strg::e2e::OracleSelfTest()) return 1;
  if (opt.self_test) {
    std::cout << "oracle self-test ok\n";
    return 0;
  }
  return strg::e2e::Run(opt);
}
