// Scatter-gather serving bench: sharded vs single-engine QueryEngine on an
// identical mixed workload, plus an open-loop overload phase that checks
// the admission bound turns 2x oversubscription into typed kOverloaded
// rejections with a Little's-law-bounded p99 for the accepted requests
// (BENCH_server_sharded.json).
//
// Phases (each on freshly built engines so metrics are per-phase):
//   equivalence     — every pool query (kNN / range / temporal) answered by
//                     a single engine and a 1/2/4/8-shard engine; answers
//                     must be bit-identical (the scatter-gather exactness
//                     contract, asserted here on the bench workload too).
//   single_closed   — C closed-loop clients replaying the mix through one
//                     QueryEngine (the baseline).
//   sharded_closed  — the same replay through a ShardedQueryEngine.
//   sharded_overload— open-loop arrivals at 2x the measured sharded
//                     capacity against a small admission bound: overload
//                     must shed as typed kOverloaded (never queue without
//                     bound), and accepted-request p99 must stay within the
//                     admission-cap sojourn bound.
//
// Workload: 16 videos hash-spread over the shards; 85% kNN / 5% range /
// 5% temporal-window / 5% ingest. On one core sharding pays mainly on
// temporal queries, which scan 1/N of the records (a publish path-copies
// one root and cluster either way). The kNN scatter adds intra-query
// parallelism on multi-core hosts and tau-seeded pruning everywhere; the speedup SLO
// (>= 2x at >= 4 shards) therefore records hardware_concurrency and is
// marked not-applicable on single-core machines, where the honest ceiling
// is the ingest/temporal fraction.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/query_engine.h"
#include "server/sharded_engine.h"
#include "synth/generator.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace strg {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kNumVideos = 16;
constexpr size_t kKnnK = 10;
constexpr double kRangeRadius = 2.0;

struct Workload {
  std::vector<std::string> names;                // video names, ingest order
  std::vector<api::SegmentResult> segments;      // one per video
  std::vector<core::Og> stream;                  // OGs ingest ops draw from
  std::vector<dist::Sequence> queries;           // probe pool
};

Workload MakeWorkload(int scale) {
  synth::SynthParams sp;
  // Big enough that per-request work dominates scatter bookkeeping even on
  // one core (48 patterns * 12 = 576 OGs, 1/4 held back for ingest).
  sp.items_per_cluster = 12 * scale;
  sp.seed = 4242;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);

  Workload w;
  w.segments.resize(kNumVideos);
  for (size_t v = 0; v < kNumVideos; ++v) {
    w.names.push_back("cam-" + std::to_string(v));
    w.segments[v].frame_width = 100;
    w.segments[v].frame_height = 100;
  }
  // Round-robin the synthetic OGs over the videos; hold back 1 in 4 as the
  // ingest stream.
  size_t frames = 0;
  for (size_t i = 0; i < ds.ogs.size(); ++i) {
    frames = std::max(frames, static_cast<size_t>(ds.ogs[i].start_frame) +
                                  ds.ogs[i].Length());
    if (i % 4 == 3) {
      w.stream.push_back(ds.ogs[i]);
    } else {
      w.segments[i % kNumVideos].decomposition.object_graphs.push_back(
          ds.ogs[i]);
    }
  }
  for (auto& seg : w.segments) seg.num_frames = frames;
  auto all = ds.Sequences(synth::SynthScaling());
  w.queries.assign(all.begin(),
                   all.begin() + std::min<size_t>(64, all.size()));
  return w;
}

index::StrgIndexParams IndexParams() {
  index::StrgIndexParams p;
  p.num_clusters = 8;
  p.cluster_params.max_iterations = 10;
  return p;
}

/// One deterministic request decided by the driver's seeded RNG.
struct Request {
  enum Kind { kKnn, kRange, kActive, kIngest } kind;
  size_t query;  // index into queries / stream
  size_t video;  // kActive / kIngest target
};

Request PickRequest(std::mt19937* rng, const Workload& w) {
  std::uniform_int_distribution<int> pct(0, 99);
  Request r;
  int op = pct(*rng);
  if (op < 85) {
    r.kind = Request::kKnn;
  } else if (op < 90) {
    r.kind = Request::kRange;
  } else if (op < 95) {
    r.kind = Request::kActive;
  } else {
    r.kind = Request::kIngest;
  }
  r.query = std::uniform_int_distribution<size_t>(
      0, (r.kind == Request::kIngest ? w.stream.size() : w.queries.size()) -
             1)(*rng);
  r.video =
      std::uniform_int_distribution<size_t>(0, kNumVideos - 1)(*rng);
  return r;
}

api::QuerySpec SpecFor(const Request& r, const Workload& w) {
  switch (r.kind) {
    case Request::kKnn:
      return api::QuerySpec::Similar(w.queries[r.query], kKnnK);
    case Request::kRange:
      return api::QuerySpec::WithinRadius(w.queries[r.query], kRangeRadius);
    default:
      return api::QuerySpec::Active(w.names[r.video], 0, 1 << 20);
  }
}

/// Feeds the base catalog in a fixed global order (so single and sharded
/// engines assign identical global og ids) and returns per-video segment
/// ids for the ingest ops.
template <typename Engine>
std::vector<int> FeedBase(Engine* engine, const Workload& w) {
  std::vector<int> segment_ids(kNumVideos, -1);
  for (size_t v = 0; v < kNumVideos; ++v) {
    engine->AddVideo(w.names[v], w.segments[v], &segment_ids[v]);
  }
  return segment_ids;
}

struct PhaseResult {
  std::string name;
  size_t clients = 0;
  size_t requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  size_t errors = 0;
};

/// Closed loop: C clients, each issuing the next request the moment the
/// previous one completes. Measures sustained throughput at fixed offered
/// concurrency plus client-observed latency percentiles.
template <typename Engine>
PhaseResult RunClosedLoop(const std::string& name, Engine* engine,
                          const std::vector<int>& segment_ids,
                          const Workload& w, size_t clients,
                          size_t requests) {
  std::atomic<size_t> errors{0};
  const size_t per_client = requests / clients;
  std::vector<std::vector<double>> lat(clients);
  Timer timer;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937 rng(2000 + 31 * c);
      lat[c].reserve(per_client);
      for (size_t i = 0; i < per_client; ++i) {
        Request r = PickRequest(&rng, w);
        Timer request;
        if (r.kind == Request::kIngest) {
          engine->AddObjectGraph(segment_ids[r.video], w.names[r.video],
                                 w.stream[r.query], synth::SynthScaling());
        } else {
          server::QueryResult qr = engine->Query(SpecFor(r, w));
          if (qr.status != server::StatusCode::kOk) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        lat[c].push_back(request.Seconds() * 1e6);
      }
    });
  }
  for (auto& t : threads) t.join();

  PhaseResult res;
  res.name = name;
  res.clients = clients;
  res.requests = per_client * clients;
  res.seconds = timer.Seconds();
  res.qps = static_cast<double>(res.requests) / res.seconds;
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  res.p50_us = Percentile(all, 50.0);
  res.p95_us = Percentile(all, 95.0);
  res.p99_us = Percentile(all, 99.0);
  res.errors = errors.load();
  return res;
}

struct OverloadResult {
  double offered_qps = 0.0;
  size_t submitted = 0;
  size_t ok = 0;
  size_t shed_overloaded = 0;
  size_t other = 0;
  double accepted_p99_us = 0.0;
  double p99_bound_us = 0.0;  // admission-cap sojourn bound (Little's law)
};

/// Open loop: a dispatcher paces Submit() calls at a fixed arrival rate
/// regardless of completions (the non-blocking half of the API). Overload
/// must surface as immediate typed kOverloaded, never as unbounded queueing.
OverloadResult RunOpenLoopOverload(server::ShardedQueryEngine* engine,
                                   const Workload& w, double offered_qps,
                                   size_t n_requests, size_t max_pending,
                                   double capacity_qps) {
  OverloadResult res;
  res.offered_qps = offered_qps;
  res.submitted = n_requests;

  std::vector<Clock::time_point> t0(n_requests);
  std::vector<double> ok_lat(n_requests, -1.0);
  std::atomic<size_t> ok{0}, shed{0}, other{0}, done{0};

  std::mt19937 rng(777);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / offered_qps));
  auto next = Clock::now();
  for (size_t i = 0; i < n_requests; ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    Request r = PickRequest(&rng, w);
    if (r.kind == Request::kIngest) {  // queries only in the open loop
      r.kind = Request::kKnn;
      r.query %= w.queries.size();  // was drawn from the ingest stream
    }
    t0[i] = Clock::now();
    engine->Submit(SpecFor(r, w), {},
                   [&, i](const server::QueryResult& qr) {
                     if (qr.status == server::StatusCode::kOk) {
                       ok_lat[i] = std::chrono::duration<double, std::micro>(
                                       Clock::now() - t0[i])
                                       .count();
                       ok.fetch_add(1, std::memory_order_relaxed);
                     } else if (qr.status ==
                                server::StatusCode::kOverloaded) {
                       shed.fetch_add(1, std::memory_order_relaxed);
                     } else {
                       other.fetch_add(1, std::memory_order_relaxed);
                     }
                     done.fetch_add(1, std::memory_order_release);
                   });
  }
  // Completion callbacks fire on pool workers; wait for the tail.
  for (int spins = 0; done.load(std::memory_order_acquire) < n_requests &&
                      spins < 30000;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<double> accepted;
  for (double us : ok_lat) {
    if (us >= 0.0) accepted.push_back(us);
  }
  res.ok = ok.load();
  res.shed_overloaded = shed.load();
  res.other = other.load();
  res.accepted_p99_us = Percentile(accepted, 99.0);
  // With at most max_pending requests admitted and the engine draining at
  // capacity_qps, an accepted request waits < max_pending/capacity behind
  // the queue; double it for scheduling slop and add a fixed floor.
  res.p99_bound_us =
      2.0 * static_cast<double>(max_pending) / capacity_qps * 1e6 + 1e4;
  return res;
}

bool SameHits(const std::vector<api::VideoDatabase::QueryHit>& a,
              const std::vector<api::VideoDatabase::QueryHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].video != b[i].video || a[i].og_id != b[i].og_id ||
        a[i].distance != b[i].distance ||
        a[i].start_frame != b[i].start_frame || a[i].length != b[i].length) {
      return false;
    }
  }
  return true;
}

/// Every pool query answered by both engines, compared field-for-field and
/// bit-for-bit on distances (the scatter-gather exactness contract).
bool CheckEquivalence(const Workload& w, size_t num_shards) {
  server::EngineOptions so;
  so.num_threads = 1;
  server::QueryEngine single(IndexParams(), so);
  server::ShardedEngineOptions sh;
  sh.num_shards = num_shards;
  server::ShardedQueryEngine sharded(IndexParams(), sh);
  FeedBase(&single, w);
  FeedBase(&sharded, w);

  for (const auto& q : w.queries) {
    auto a = single.Query(api::QuerySpec::Similar(q, kKnnK));
    auto b = sharded.Query(api::QuerySpec::Similar(q, kKnnK));
    if (!SameHits(a.hits, b.hits)) return false;
    a = single.Query(api::QuerySpec::WithinRadius(q, kRangeRadius));
    b = sharded.Query(api::QuerySpec::WithinRadius(q, kRangeRadius));
    if (!SameHits(a.hits, b.hits)) return false;
  }
  for (const auto& name : w.names) {
    auto a = single.Query(api::QuerySpec::Active(name, 0, 1 << 20));
    auto b = sharded.Query(api::QuerySpec::Active(name, 0, 1 << 20));
    if (!SameHits(a.hits, b.hits)) return false;
  }
  return true;
}

}  // namespace
}  // namespace strg

int main() {
  using namespace strg;
  bench::Banner("BENCH server scatter",
                "sharded scatter-gather vs single engine: closed-loop "
                "throughput, open-loop overload shedding");
  bench::JsonReport report("BENCH_server_sharded.json");
  report.AddString("bench", "server_scatter");

  const int scale = std::max(1, bench::EnvInt("STRG_BENCH_SCALE", 1));
  const size_t shards = static_cast<size_t>(
      std::max(1, bench::EnvInt("STRG_BENCH_SHARDS", 4)));
  const unsigned cores = std::thread::hardware_concurrency();
  const size_t clients = static_cast<size_t>(
      std::max(1, bench::EnvInt("STRG_BENCH_CLIENTS",
                                static_cast<int>(std::max(2u, cores)))));
  const size_t closed_requests = 1800 * static_cast<size_t>(scale);
  report.AddScalar("shards", static_cast<double>(shards));
  report.AddScalar("clients", static_cast<double>(clients));

  Workload w = MakeWorkload(scale);
  size_t base_ogs = 0;
  for (const auto& s : w.segments) {
    base_ogs += s.decomposition.object_graphs.size();
  }
  std::cout << "workload: " << kNumVideos << " videos, " << base_ogs
            << " base OGs, " << w.stream.size() << " streamable OGs, "
            << w.queries.size() << " query pool\n"
            << "shards=" << shards << " clients=" << clients
            << " cores=" << cores << " closed-loop requests="
            << closed_requests << "\n\n";

  // -- Phase 0: exactness across shard counts (incl. the headline one). --
  bool equivalent = true;
  for (size_t n : {size_t{2}, shards}) {
    const bool ok = CheckEquivalence(w, n);
    std::cout << "equivalence vs " << n << " shards: "
              << (ok ? "bit-identical" : "MISMATCH") << "\n";
    equivalent = equivalent && ok;
  }
  report.AddScalar("equivalent", equivalent ? 1.0 : 0.0);

  // -- Phase 1: closed-loop baseline (one engine, one snapshot chain). --
  PhaseResult single;
  {
    server::EngineOptions so;
    so.num_threads = 0;  // hardware concurrency
    so.max_pending = 4096;
    server::QueryEngine engine(IndexParams(), so);
    auto ids = FeedBase(&engine, w);
    single = RunClosedLoop("single_closed", &engine, ids, w, clients,
                           closed_requests);
  }

  // -- Phase 2: the same replay, scatter-gathered over the shards. --
  PhaseResult sharded;
  {
    server::ShardedEngineOptions sh;
    sh.num_shards = shards;
    sh.max_pending = 4096;
    server::ShardedQueryEngine engine(IndexParams(), sh);
    auto ids = FeedBase(&engine, w);
    sharded = RunClosedLoop("sharded_closed", &engine, ids, w, clients,
                            closed_requests);
  }
  Table phases({"phase", "clients", "requests", "seconds", "qps", "p50_us",
                "p95_us", "p99_us", "errors"});
  for (const PhaseResult* r : {&single, &sharded}) {
    phases.AddRow({r->name, std::to_string(r->clients),
                   std::to_string(r->requests), FormatDouble(r->seconds, 4),
                   FormatDouble(r->qps, 1), FormatDouble(r->p50_us, 1),
                   FormatDouble(r->p95_us, 1), FormatDouble(r->p99_us, 1),
                   std::to_string(r->errors)});
  }
  std::cout << "\n";
  phases.Print(std::cout);
  report.AddTable("phases", phases);

  const double speedup = sharded.qps / single.qps;
  const double p99_ratio =
      single.p99_us > 0.0 ? sharded.p99_us / single.p99_us : 0.0;
  report.AddScalar("speedup_sharded_vs_single", speedup);
  report.AddScalar("p99_ratio", p99_ratio);

  // -- Phase 3: open loop at 2x the measured sharded capacity. --
  OverloadResult over;
  const size_t over_pending = 64;
  {
    server::ShardedEngineOptions sh;
    sh.num_shards = shards;
    sh.max_pending = over_pending;
    server::ShardedQueryEngine engine(IndexParams(), sh);
    FeedBase(&engine, w);
    const double offered = 2.0 * sharded.qps;
    const size_t n = std::min<size_t>(
        static_cast<size_t>(offered * 2.0) + 1, 20000);
    over = RunOpenLoopOverload(&engine, w, offered, n, over_pending,
                               sharded.qps);
  }
  Table overload({"offered_qps", "submitted", "ok", "shed_overloaded",
                  "other_errors", "accepted_p99_us", "p99_bound_us",
                  "max_pending"});
  overload.AddRow({FormatDouble(over.offered_qps, 1),
                   std::to_string(over.submitted), std::to_string(over.ok),
                   std::to_string(over.shed_overloaded),
                   std::to_string(over.other),
                   FormatDouble(over.accepted_p99_us, 1),
                   FormatDouble(over.p99_bound_us, 1),
                   std::to_string(over_pending)});
  std::cout << "\nsharded_overload (open loop at 2x sharded capacity):\n";
  overload.Print(std::cout);
  report.AddTable("overload", overload);

  // -- SLOs. The parallel-speedup target needs cores to parallelize over:
  // on a single-core host the scatter still must not *lose* (and overload
  // shedding / exactness still apply), but >= 2x is marked n/a. Exactness
  // and the two admission SLOs set the exit code: overload is shed, only as
  // kOverloaded, and accepted p99 stays within the admission cap's bound.
  // speedup_ok and equal_p99_ok are reported only; whether sharding stays
  // and meets them is an open ROADMAP item ("One engine").
  const bool speedup_applicable = cores >= 2 && shards >= 4;
  const bool slo_speedup = speedup >= 2.0;
  const bool slo_p99 = p99_ratio <= 1.10 || sharded.p99_us <= single.p99_us;
  const bool slo_shed_typed = over.shed_overloaded > 0 && over.other == 0;
  const bool slo_p99_bounded = over.accepted_p99_us <= over.p99_bound_us;
  report.AddScalar("speedup_target", 2.0);
  report.AddScalar("speedup_ok", slo_speedup ? 1.0 : 0.0);
  report.AddScalar("speedup_applicable", speedup_applicable ? 1.0 : 0.0);
  report.AddScalar("equal_p99_ok", slo_p99 ? 1.0 : 0.0);
  report.AddScalar("shed_typed_ok", slo_shed_typed ? 1.0 : 0.0);
  report.AddScalar("overload_p99_bounded_ok", slo_p99_bounded ? 1.0 : 0.0);
  report.Write();

  std::cout << "speedup (sharded_closed vs single_closed): " << speedup
            << "x on " << shards << " shards, " << cores << " core(s)"
            << (speedup_applicable
                    ? "  [acceptance: >= 2x at equal p99]"
                    : "  [>= 2x SLO n/a: needs >= 2 cores and >= 4 shards]")
            << "\n"
            << "SLOs: shed_typed_ok=" << slo_shed_typed
            << " overload_p99_bounded_ok=" << slo_p99_bounded
            << " equal_p99_ok=" << slo_p99 << " speedup_ok=" << slo_speedup
            << "\n";
  return equivalent && slo_shed_typed && slo_p99_bounded ? 0 : 1;
}
