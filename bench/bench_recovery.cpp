// Durability cost / recovery speed harness for the WAL layer
// (src/storage/wal + server::DurableQueryEngine). Prints two tables and
// writes them to BENCH_recovery.json:
//
//   ingest   — per-op ingest latency for the no-WAL QueryEngine baseline
//              and for each fsync policy (every_record / every_n /
//              on_publish), i.e. what each durability window costs.
//   replay   — crash-recovery throughput: reopen after ingesting N
//              streamed OGs with compaction disabled (pure log replay,
//              generations/s) and with periodic compaction (snapshot +
//              short log tail), plus wall seconds for each.
//
// Scale knobs: STRG_BENCH_RECOVERY_OPS (streamed ops per phase, default
// 192), STRG_BENCH_SCALE multiplies it.

#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "server/durable_engine.h"
#include "synth/generator.h"
#include "util/table.h"
#include "util/timer.h"

namespace strg {
namespace {

namespace fs = std::filesystem;

struct Workload {
  api::SegmentResult segment;
  std::vector<core::Og> stream;
};

Workload MakeWorkload(size_t base, size_t stream_ops) {
  synth::SynthParams sp;
  sp.items_per_cluster =
      static_cast<int>((base + stream_ops) / 48 + 1);  // 48 patterns/cluster
  sp.seed = 20260805;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);

  Workload w;
  w.segment.frame_width = 100;
  w.segment.frame_height = 100;
  size_t frames = 0;
  for (size_t i = 0; i < ds.ogs.size() && i < base + stream_ops; ++i) {
    frames = std::max(frames, static_cast<size_t>(ds.ogs[i].start_frame) +
                                  ds.ogs[i].Length());
    if (i < base) {
      w.segment.decomposition.object_graphs.push_back(ds.ogs[i]);
    } else {
      w.stream.push_back(ds.ogs[i]);
    }
  }
  w.segment.num_frames = frames;
  return w;
}

index::StrgIndexParams IndexParams() {
  index::StrgIndexParams p;
  p.num_clusters = 8;
  p.cluster_params.max_iterations = 10;
  return p;
}

/// Every phase's engine directory sits under this root; main removes it
/// after the replay phase has reopened them.
fs::path BenchRoot() {
  return fs::temp_directory_path() / "strg_bench_recovery";
}

std::string FreshDir(const std::string& tag) {
  const fs::path dir = BenchRoot() / tag;
  fs::remove_all(dir);
  return dir.string();
}

struct IngestRow {
  std::string name;
  size_t ops = 0;
  double micros_per_op = 0.0;
  uint64_t syncs = 0;
};

struct ReplayRow {
  std::string name;
  size_t records = 0;       // log records replayed on reopen
  uint64_t generations = 0;  // generation reached after recovery
  double seconds = 0.0;      // snapshot load + replay wall time
  double generations_per_sec = 0.0;
};

/// Streams the workload through a DurableQueryEngine in `dir`; returns the
/// per-op ingest cost and leaves the directory populated for a replay run.
IngestRow RunIngest(const std::string& name, const std::string& dir,
                    const Workload& w,
                    const server::DurableEngineOptions& opts) {
  auto engine = server::DurableQueryEngine::Open(dir, IndexParams(), opts);
  if (!engine.ok()) {
    std::cerr << "open failed: " << engine.status().ToString() << "\n";
    std::exit(1);
  }
  int segment_id = -1;
  (*engine)->AddVideo("bench", w.segment, &segment_id).value();

  Timer timer;
  for (const core::Og& og : w.stream) {
    (*engine)
        ->AddObjectGraph(segment_id, "bench", og, synth::SynthScaling())
        .value();
  }
  const double secs = timer.Seconds();

  IngestRow row;
  row.name = name;
  row.ops = w.stream.size();
  row.micros_per_op = w.stream.empty() ? 0.0 : secs * 1e6 / w.stream.size();
  row.syncs = (*engine)->engine().metrics().wal_syncs.load();
  return row;
}

/// Baseline: the same stream through the bare QueryEngine (no WAL at all).
IngestRow RunBaseline(const Workload& w) {
  server::EngineOptions eopts;
  eopts.num_threads = 2;
  server::QueryEngine engine(IndexParams(), eopts);
  int segment_id = -1;
  engine.AddVideo("bench", w.segment, &segment_id);

  Timer timer;
  for (const core::Og& og : w.stream) {
    engine.AddObjectGraph(segment_id, "bench", og, synth::SynthScaling());
  }
  const double secs = timer.Seconds();

  IngestRow row;
  row.name = "no_wal_baseline";
  row.ops = w.stream.size();
  row.micros_per_op = w.stream.empty() ? 0.0 : secs * 1e6 / w.stream.size();
  return row;
}

ReplayRow RunReplay(const std::string& name, const std::string& dir,
                    const server::DurableEngineOptions& opts) {
  auto engine = server::DurableQueryEngine::Open(dir, IndexParams(), opts);
  if (!engine.ok()) {
    std::cerr << "reopen failed: " << engine.status().ToString() << "\n";
    std::exit(1);
  }
  const server::RecoveryStats& rec = (*engine)->recovery();
  ReplayRow row;
  row.name = name;
  row.records = rec.replayed_records;
  row.generations = (*engine)->Generation();
  row.seconds = rec.replay_seconds;
  row.generations_per_sec =
      rec.replay_seconds > 0 ? row.generations / rec.replay_seconds : 0.0;
  return row;
}

}  // namespace
}  // namespace strg

int main() {
  using namespace strg;
  bench::Banner("BENCH recovery",
                "WAL append overhead per fsync policy + replay throughput");
  bench::JsonReport report("BENCH_recovery.json");
  report.AddString("bench", "recovery");

  const size_t ops = static_cast<size_t>(
      bench::EnvInt("STRG_BENCH_RECOVERY_OPS", 192) *
      std::max(1, bench::EnvInt("STRG_BENCH_SCALE", 1)));
  Workload w = MakeWorkload(/*base=*/48, ops);
  std::cout << "base OGs: 48, streamed ops: " << w.stream.size() << "\n\n";
  report.AddScalar("streamed_ops", static_cast<double>(w.stream.size()));

  // ---- Ingest cost per fsync policy (compaction off: pure append). ----
  std::vector<IngestRow> ingest;
  ingest.push_back(RunBaseline(w));

  struct Policy {
    const char* name;
    storage::WalSyncPolicy policy;
  };
  const Policy kPolicies[] = {
      {"every_record", storage::WalSyncPolicy::kEveryRecord},
      {"every_n", storage::WalSyncPolicy::kEveryN},
      {"on_publish", storage::WalSyncPolicy::kOnPublish},
  };
  std::string every_record_dir;
  for (const Policy& p : kPolicies) {
    server::DurableEngineOptions opts;
    opts.wal.sync_policy = p.policy;
    opts.wal.sync_every_n = 32;
    opts.compact_every = 0;
    opts.engine.num_threads = 2;
    const std::string dir = FreshDir(std::string("ingest_") + p.name);
    if (p.policy == storage::WalSyncPolicy::kEveryRecord)
      every_record_dir = dir;
    ingest.push_back(RunIngest(p.name, dir, w, opts));
  }
  const double base_us = ingest.front().micros_per_op;
  Table ingest_table(
      {"policy", "ops", "micros_per_op", "overhead_vs_no_wal", "fsyncs"});
  for (const IngestRow& r : ingest) {
    ingest_table.AddRow(
        {r.name, std::to_string(r.ops), FormatDouble(r.micros_per_op),
         FormatDouble(base_us > 0 ? r.micros_per_op / base_us : 0.0),
         std::to_string(r.syncs)});
  }
  ingest_table.Print(std::cout);
  report.AddTable("ingest", ingest_table);

  // ---- Replay throughput: pure log vs snapshot + tail. ----
  std::vector<ReplayRow> replay;
  {
    // Pure log replay: reuse the every_record directory (compaction off).
    server::DurableEngineOptions opts;
    opts.compact_every = 0;
    opts.engine.num_threads = 2;
    replay.push_back(RunReplay("pure_log", every_record_dir, opts));
  }
  {
    // Snapshot-dominant replay: ingest with periodic compaction, reopen.
    server::DurableEngineOptions opts;
    opts.wal.sync_policy = storage::WalSyncPolicy::kEveryN;
    opts.compact_every = 64;
    opts.engine.num_threads = 2;
    const std::string dir = FreshDir("ingest_compacting");
    RunIngest("compacting", dir, w, opts);
    replay.push_back(RunReplay("snapshot_plus_tail", dir, opts));
  }
  fs::remove_all(BenchRoot());
  Table replay_table({"mode", "replayed_records", "generations", "seconds",
                      "generations_per_sec"});
  for (const ReplayRow& r : replay) {
    replay_table.AddRow({r.name, std::to_string(r.records),
                         std::to_string(r.generations),
                         FormatDouble(r.seconds, 6),
                         FormatDouble(r.generations_per_sec, 1)});
  }
  std::cout << "\n";
  replay_table.Print(std::cout);
  report.AddTable("replay", replay_table);
  report.Write();
  return 0;
}
