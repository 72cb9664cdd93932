// Load driver for the serving layer (src/server): replays a mixed
// query/ingest workload against the QueryEngine at configurable driver
// thread counts and reports QPS and kNN latency percentiles per phase
// (stdout + BENCH_server.json).
//
// Phases (each on a freshly built engine so metrics are per-phase, and
// each over the same request count, 4,000 x STRG_BENCH_SCALE):
//   serial_direct      — 1 thread, raw api::VideoDatabase replay: no
//                        server. The single-threaded baseline; its kNN
//                        calls are timed into the same histogram buckets
//                        the engine phases report.
//   server_1thread     — 1 driver through the QueryEngine.
//   server_multithread — STRG_BENCH_THREADS drivers (default 4).
//
// Workload: zipf-ish repetition (90% of queries from a hot set of 8, rest
// uniform over a 64-query pool); 90% kNN / 5% range / 4% temporal-window
// and 1% ingest ops interleaved, each publishing a new index generation.
// The engine runs every request, so a repeated probe costs what a fresh
// one does, and multi-driver QPS over serial measures what concurrency
// buys on the host that runs it. All phases replay the identical mix so
// the QPS comparison is apples-to-apples.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/metrics.h"
#include "server/query_engine.h"
#include "synth/generator.h"
#include "util/table.h"
#include "util/timer.h"

namespace strg {
namespace {

struct Workload {
  api::SegmentResult segment;           // base OGs, indexed at phase start
  std::vector<core::Og> stream;         // OGs ingest ops draw from
  std::vector<dist::Sequence> queries;  // probe pool
};

Workload MakeWorkload(size_t base) {
  synth::SynthParams sp;
  sp.items_per_cluster = 4;  // 48 patterns * 4 = 192 OGs
  sp.seed = 1234;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);

  Workload w;
  w.segment.frame_width = 100;
  w.segment.frame_height = 100;
  size_t frames = 0;
  for (size_t i = 0; i < ds.ogs.size(); ++i) {
    frames = std::max(frames, static_cast<size_t>(ds.ogs[i].start_frame) +
                                  ds.ogs[i].Length());
    if (i < base) {
      w.segment.decomposition.object_graphs.push_back(ds.ogs[i]);
    } else {
      w.stream.push_back(ds.ogs[i]);
    }
  }
  w.segment.num_frames = frames;
  auto all = ds.Sequences(synth::SynthScaling());
  w.queries.assign(all.begin(), all.begin() + std::min<size_t>(64, all.size()));
  return w;
}

index::StrgIndexParams IndexParams() {
  index::StrgIndexParams p;
  p.num_clusters = 8;
  p.cluster_params.max_iterations = 10;
  return p;
}

/// One deterministic request decided by (phase_seed, request index).
struct Request {
  enum Kind { kKnn, kRange, kActive, kIngest } kind;
  size_t query;  // index into Workload::queries / stream
};

Request PickRequest(std::mt19937* rng, const Workload& w, bool allow_ingest) {
  std::uniform_int_distribution<int> pct(0, 99);
  Request r;
  int op = pct(*rng);
  if (allow_ingest && op < 1) {
    r.kind = Request::kIngest;
    r.query = std::uniform_int_distribution<size_t>(
        0, w.stream.size() - 1)(*rng);
    return r;
  }
  if (op < 91) {
    r.kind = Request::kKnn;
  } else if (op < 96) {
    r.kind = Request::kRange;
  } else {
    r.kind = Request::kActive;
  }
  // 90% of queries come from a hot set of 8 probes.
  if (pct(*rng) < 90) {
    r.query = std::uniform_int_distribution<size_t>(0, 7)(*rng);
  } else {
    r.query = std::uniform_int_distribution<size_t>(
        0, w.queries.size() - 1)(*rng);
  }
  return r;
}

constexpr size_t kKnnK = 10;
constexpr double kRangeRadius = 2.0;

struct PhaseResult {
  std::string name;
  size_t threads = 0;
  size_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double knn_p50_us = 0.0;
  double knn_p95_us = 0.0;
  double knn_p99_us = 0.0;
  size_t errors = 0;  // non-OK statuses (should stay 0 at these bounds)
};

/// Serial replay against the bare database: the no-server baseline.
PhaseResult RunSerialDirect(const Workload& w, size_t requests) {
  api::VideoDatabase db{IndexParams()};
  db.AddVideo("lab1", w.segment);

  server::LatencyHistogram knn_latency;
  std::mt19937 rng(99);
  Timer timer;
  size_t sink = 0;
  for (size_t i = 0; i < requests; ++i) {
    Request r = PickRequest(&rng, w, /*allow_ingest=*/true);
    switch (r.kind) {
      case Request::kKnn: {
        Timer knn;
        sink +=
            db.Query(api::QuerySpec::Similar(w.queries[r.query], kKnnK)).size();
        knn_latency.Record(knn.Seconds() * 1e6);
        break;
      }
      case Request::kRange:
        sink += db.Query(api::QuerySpec::WithinRadius(w.queries[r.query],
                                                      kRangeRadius))
                    .size();
        break;
      case Request::kActive:
        sink += db.Query(api::QuerySpec::Active("lab1", 0, 1 << 20)).size();
        break;
      case Request::kIngest:
        db.AddObjectGraph(0, "lab1", w.stream[r.query],
                          synth::SynthScaling());
        break;
    }
  }
  PhaseResult res;
  res.name = "serial_direct";
  res.threads = 1;
  res.requests = requests;
  res.seconds = timer.Seconds();
  res.qps = static_cast<double>(requests) / res.seconds;
  res.knn_p50_us = knn_latency.PercentileMicros(50.0);
  res.knn_p95_us = knn_latency.PercentileMicros(95.0);
  res.knn_p99_us = knn_latency.PercentileMicros(99.0);
  if (sink == SIZE_MAX) std::cout << "";  // keep the work observable
  return res;
}

PhaseResult RunServerPhase(const std::string& name, const Workload& w,
                           size_t drivers, size_t requests) {
  server::EngineOptions opts;
  opts.num_threads =
      std::max<size_t>(2, std::thread::hardware_concurrency());
  opts.max_pending = 512;
  server::QueryEngine engine(IndexParams(), opts);
  int segment_id = -1;
  engine.AddVideo("lab1", w.segment, &segment_id);

  std::atomic<size_t> errors{0};
  const size_t per_driver = requests / drivers;
  Timer timer;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < drivers; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(1000 + 17 * t);
      for (size_t i = 0; i < per_driver; ++i) {
        Request r = PickRequest(&rng, w, /*allow_ingest=*/true);
        server::QueryResult qr;
        switch (r.kind) {
          case Request::kKnn:
            qr = engine.Query(
                api::QuerySpec::Similar(w.queries[r.query], kKnnK));
            break;
          case Request::kRange:
            qr = engine.Query(api::QuerySpec::WithinRadius(
                w.queries[r.query], kRangeRadius));
            break;
          case Request::kActive:
            qr = engine.Query(api::QuerySpec::Active("lab1", 0, 1 << 20));
            break;
          case Request::kIngest:
            engine.AddObjectGraph(segment_id, "lab1", w.stream[r.query],
                                  synth::SynthScaling());
            continue;
        }
        if (qr.status != server::StatusCode::kOk) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  PhaseResult res;
  res.name = name;
  res.threads = drivers;
  res.requests = per_driver * drivers;
  res.seconds = timer.Seconds();
  res.qps = static_cast<double>(res.requests) / res.seconds;
  const server::ServerMetrics& m = engine.metrics();
  res.knn_p50_us = m.knn_latency.PercentileMicros(50.0);
  res.knn_p95_us = m.knn_latency.PercentileMicros(95.0);
  res.knn_p99_us = m.knn_latency.PercentileMicros(99.0);
  res.errors = errors.load();
  return res;
}

}  // namespace
}  // namespace strg

int main() {
  using namespace strg;
  bench::Banner("BENCH server",
                "serving-layer throughput: mixed query/ingest replay "
                "through server::QueryEngine");
  bench::JsonReport report("BENCH_server.json");
  report.AddString("bench", "server_throughput");
  // Every BENCH_server*.json records its shard count beside the stamped
  // hardware_concurrency (strg-bench-server-shards), so runs compare across
  // hosts and against the sharded bench.
  report.AddScalar("shards", 1.0);

  const int scale = std::max(1, bench::EnvInt("STRG_BENCH_SCALE", 1));
  const size_t drivers = static_cast<size_t>(
      std::max(1, bench::EnvInt("STRG_BENCH_THREADS", 4)));
  // One request count for every phase: a short serial phase is mostly
  // noise, and the speedup ratio is only as steady as its denominator.
  const size_t requests = 4000 * static_cast<size_t>(scale);

  Workload w = MakeWorkload(/*base=*/128);
  std::cout << "workload: " << w.segment.decomposition.object_graphs.size()
            << " base OGs, " << w.stream.size() << " streamable OGs, "
            << w.queries.size() << " query pool (hot set 8)\n"
            << "phases: " << requests << " reqs each, drivers=" << drivers
            << "\n";

  PhaseResult serial = RunSerialDirect(w, requests);
  PhaseResult one = RunServerPhase("server_1thread", w, 1, requests);
  PhaseResult multi =
      RunServerPhase("server_multithread", w, drivers, requests);

  Table phases({"phase", "threads", "requests", "seconds", "qps",
                "knn_p50_us", "knn_p95_us", "knn_p99_us", "errors"});
  for (const PhaseResult* r : {&serial, &one, &multi}) {
    phases.AddRow({r->name, std::to_string(r->threads),
                   std::to_string(r->requests), FormatDouble(r->seconds, 4),
                   FormatDouble(r->qps, 1), FormatDouble(r->knn_p50_us, 1),
                   FormatDouble(r->knn_p95_us, 1),
                   FormatDouble(r->knn_p99_us, 1),
                   std::to_string(r->errors)});
  }
  phases.Print(std::cout);
  report.AddTable("phases", phases);

  const double speedup = multi.qps / serial.qps;
  std::cout << "speedup (server_multithread vs serial_direct): " << speedup
            << "x\n";
  report.AddScalar("speedup_multi_vs_serial", speedup);
  report.Write();
  return 0;
}
