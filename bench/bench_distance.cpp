// Distance-kernel benchmark: the fast EGED path vs the reference DP, and
// the SIMD dispatch tiers against each other IN-PROCESS (cross-process
// comparisons are hopelessly noisy on small containers; ForceTier swaps the
// kernel table between timed sections instead).
//
// Part 1 — kernel micro: ref vs flat(exact) vs bounded(tau) across sequence
// lengths, with the flat/bounded columns measured twice: forced-scalar and
// the detected SIMD tier. Exact values are bit-identical across tiers by
// design; only the time may differ.
//
// Part 2 — per-kernel scalar-vs-SIMD micro: the batched point distance, the
// lower-bound cascade, the batched bounded DP, and the DTW/EDR baselines.
//
// Part 3 — batched one-vs-many: EgedBatchBounded against the equivalent
// one-at-a-time loop (same tier), plus the steady-state allocation check:
// after warm-up the batch entry point must perform ZERO heap allocations —
// the bench fails loudly (exit 1) if it allocates.
//
// Part 4 — kNN cold path: the index's query kernel forced scalar and at the
// detected tier. knn_simd_p50_speedup tracks SIMD-vs-scalar.
//
// Output: human-readable stdout + BENCH_distance.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "distance/dtw.h"
#include "distance/edr.h"
#include "distance/eged.h"
#include "distance/eged_fast.h"
#include "distance/simd/dispatch.h"
#include "index/strg_index.h"
#include "synth/generator.h"
#include "util/random.h"

// ---- global allocation counter (part 3) ---------------------------------
//
// Same pattern as bench_ingest: replacing the global operator new/delete
// lets the bench prove the steady-state claim instead of asserting it in a
// comment. Counting is gated so the rest of the benchmark is unaffected.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
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
using dist::EgedBatchBounded;
using dist::EgedKernelStats;
using dist::EgedLowerBoundBatch;
using dist::EgedMetric;
using dist::EgedMetricBounded;
using dist::EgedMetricFlat;
using dist::EgedWorkspace;
using dist::FeatureVec;
using dist::FlatSequence;
using dist::Sequence;
namespace simd = dist::simd;

/// Forces a dispatch tier for one timed section and restores the previous
/// tier on scope exit.
class ScopedTier {
 public:
  explicit ScopedTier(simd::Tier tier)
      : saved_(simd::ActiveTier()), ok_(simd::ForceTier(tier)) {}
  ~ScopedTier() { simd::ForceTier(saved_); }
  bool ok() const { return ok_; }

 private:
  simd::Tier saved_;
  bool ok_;
};

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

Sequence RandomSequence(Rng* rng, size_t len) {
  Sequence s(len);
  FeatureVec cur{};
  for (size_t k = 0; k < dist::kFeatureDim; ++k) {
    cur[k] = rng->Uniform(0.0, 10.0);
  }
  for (size_t i = 0; i < len; ++i) {
    for (size_t k = 0; k < dist::kFeatureDim; ++k) {
      cur[k] += rng->Gaussian(0.0, 0.5);
    }
    s[i] = cur;
  }
  return s;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p / 100.0 *
                                   static_cast<double>(v.size() - 1));
  return v[idx];
}

struct MicroRow {
  size_t length = 0;
  double ref_us = 0.0;
  double scalar_flat_us = 0.0;
  double simd_flat_us = 0.0;
  double scalar_bounded_us = 0.0;
  double simd_bounded_us = 0.0;
  double prune_rate = 0.0;    // fraction of bounded calls with no DP
  double abandon_rate = 0.0;  // fraction of bounded calls truncated
};

MicroRow MicroBench(size_t length, int pairs, int reps) {
  Rng rng(1000 + length);
  std::vector<Sequence> a(pairs), b(pairs);
  std::vector<FlatSequence> fa(pairs), fb(pairs);
  for (int i = 0; i < pairs; ++i) {
    a[i] = RandomSequence(&rng, length);
    b[i] = RandomSequence(&rng, length);
    fa[i].Assign(a[i], FeatureVec{});
    fb[i].Assign(b[i], FeatureVec{});
  }
  // Realistic tau: the 10th percentile of the pairwise distances — the
  // regime a kNN search settles into once its heap is warm.
  std::vector<double> exact(pairs);
  for (int i = 0; i < pairs; ++i) exact[i] = EgedMetric(a[i], b[i]);
  double tau = Percentile(exact, 10.0);

  MicroRow row;
  row.length = length;
  volatile double sink = 0.0;

  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < pairs; ++i) sink = sink + EgedMetric(a[i], b[i]);
  }
  row.ref_us = MicrosSince(t0) / static_cast<double>(pairs * reps);

  EgedWorkspace ws;
  EgedKernelStats stats;
  for (simd::Tier tier : {simd::Tier::kScalar, simd::DetectedTier()}) {
    ScopedTier scoped(tier);
    const bool is_scalar = tier == simd::Tier::kScalar;
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < pairs; ++i) {
        sink = sink + EgedMetricFlat(fa[i], fb[i], &ws);
      }
    }
    const double flat = MicrosSince(t0) / static_cast<double>(pairs * reps);
    stats = EgedKernelStats{};
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < pairs; ++i) {
        sink = sink + EgedMetricBounded(fa[i], fb[i], tau, &ws, &stats);
      }
    }
    const double bounded =
        MicrosSince(t0) / static_cast<double>(pairs * reps);
    if (is_scalar) {
      row.scalar_flat_us = flat;
      row.scalar_bounded_us = bounded;
    }
    // On a scalar-only host the detected tier IS scalar; the simd columns
    // then repeat the scalar measurement rather than going missing.
    if (tier == simd::DetectedTier()) {
      row.simd_flat_us = flat;
      row.simd_bounded_us = bounded;
    }
  }
  double calls = static_cast<double>(pairs) * reps;
  row.prune_rate = static_cast<double>(stats.lb_prunes) / calls;
  row.abandon_rate = static_cast<double>(stats.early_abandons) / calls;
  (void)sink;
  return row;
}

// ---- part 2: per-kernel scalar-vs-SIMD ----------------------------------

struct KernelRow {
  std::string name;
  double scalar_us = 0.0;  // per unit (point or call)
  double simd_us = 0.0;
};

/// Times `body(reps)` once per tier; returns {scalar_us, simd_us} per unit.
template <typename Body>
KernelRow TimeKernel(const std::string& name, int reps, double units,
                     Body body) {
  KernelRow row;
  row.name = name;
  for (simd::Tier tier : {simd::Tier::kScalar, simd::DetectedTier()}) {
    ScopedTier scoped(tier);
    body(1);  // warm-up / touch
    auto t0 = Clock::now();
    body(reps);
    const double us = MicrosSince(t0) / (static_cast<double>(reps) * units);
    if (tier == simd::Tier::kScalar) row.scalar_us = us;
    if (tier == simd::DetectedTier()) row.simd_us = us;
  }
  return row;
}

struct BatchBench {
  std::vector<KernelRow> kernels;
  double loop_us = 0.0;        // one-at-a-time bounded, per candidate
  double batch_us = 0.0;       // EgedBatchBounded, per candidate
  uint64_t steady_allocs = 0;  // EgedBatchBounded allocations after warm-up
};

BatchBench KernelBench(int reps) {
  Rng rng(4242);
  constexpr size_t kLen = 64;
  constexpr size_t kCands = 64;
  Sequence qs = RandomSequence(&rng, kLen);
  FlatSequence query(qs, FeatureVec{});
  std::vector<Sequence> seqs(kCands);
  std::vector<FlatSequence> flats(kCands);
  std::vector<const FlatSequence*> cands(kCands);
  for (size_t i = 0; i < kCands; ++i) {
    seqs[i] = RandomSequence(&rng, kLen);
    flats[i].Assign(seqs[i], FeatureVec{});
    cands[i] = &flats[i];
  }
  // Mixed taus, as a kNN frontier would present: some generous, some tight.
  std::vector<double> dists(kCands), taus(kCands), out(kCands);
  EgedWorkspace ws;
  for (size_t i = 0; i < kCands; ++i) {
    dists[i] = EgedMetricFlat(query, flats[i], &ws);
  }
  const double tight = Percentile(dists, 10.0);
  for (size_t i = 0; i < kCands; ++i) {
    taus[i] = (i % 2 == 0) ? tight : dists[i] * 1.05;
  }

  BatchBench bench;
  volatile double sink = 0.0;

  bench.kernels.push_back(TimeKernel(
      "point_distance_batch", reps * 50, static_cast<double>(kCands * kLen),
      [&](int n) {
        const simd::KernelOps& ops = simd::ActiveOps();
        for (int r = 0; r < n; ++r) {
          for (size_t i = 0; i < kCands; ++i) {
            ops.point_distance_batch(query.point(0), flats[i].points(), kLen,
                                     out.data());
            sink = sink + out[0];
          }
        }
      }));
  bench.kernels.push_back(TimeKernel(
      "eged_lower_bound_batch", reps * 50, static_cast<double>(kCands),
      [&](int n) {
        for (int r = 0; r < n; ++r) {
          EgedLowerBoundBatch(query, cands.data(), kCands, out.data());
          sink = sink + out[0];
        }
      }));
  bench.kernels.push_back(TimeKernel(
      "eged_exact_dp", reps, static_cast<double>(kCands), [&](int n) {
        for (int r = 0; r < n; ++r) {
          for (size_t i = 0; i < kCands; ++i) {
            sink = sink + EgedMetricFlat(query, flats[i], &ws);
          }
        }
      }));
  bench.kernels.push_back(TimeKernel(
      "eged_batch_bounded", reps, static_cast<double>(kCands), [&](int n) {
        for (int r = 0; r < n; ++r) {
          EgedBatchBounded(query, cands.data(), taus.data(), kCands,
                           out.data(), &ws);
          sink = sink + out[0];
        }
      }));
  bench.kernels.push_back(TimeKernel(
      "dtw", reps, static_cast<double>(kCands), [&](int n) {
        for (int r = 0; r < n; ++r) {
          for (size_t i = 0; i < kCands; ++i) {
            sink = sink + dist::Dtw(qs, seqs[i]);
          }
        }
      }));
  bench.kernels.push_back(TimeKernel(
      "edr", reps, static_cast<double>(kCands), [&](int n) {
        for (int r = 0; r < n; ++r) {
          for (size_t i = 0; i < kCands; ++i) {
            sink = sink + dist::Edr(qs, seqs[i], 0.5);
          }
        }
      }));

  // Batch vs one-at-a-time, both at the detected tier.
  {
    ScopedTier scoped(simd::DetectedTier());
    auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (size_t i = 0; i < kCands; ++i) {
        sink = sink + EgedMetricBounded(query, flats[i], taus[i], &ws);
      }
    }
    bench.loop_us =
        MicrosSince(t0) / static_cast<double>(reps) / kCands;
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      EgedBatchBounded(query, cands.data(), taus.data(), kCands, out.data(),
                       &ws);
      sink = sink + out[0];
    }
    bench.batch_us =
        MicrosSince(t0) / static_cast<double>(reps) / kCands;

    // Steady-state allocation proof: the batch call above warmed every
    // buffer (workspace rows, reversed-query scratch); from here on the
    // batch entry point must not touch the heap at all.
    g_allocs.store(0);
    g_count_allocs.store(true);
    for (int r = 0; r < 3; ++r) {
      EgedBatchBounded(query, cands.data(), taus.data(), kCands, out.data(),
                       &ws);
      sink = sink + out[0];
    }
    g_count_allocs.store(false);
    bench.steady_allocs = g_allocs.load();
  }
  (void)sink;
  return bench;
}

// ---- part 4: kNN cold path ----------------------------------------------

struct KnnPhase {
  std::string name;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_dp = 0.0;        // DP evaluations per query
  double mean_prunes = 0.0;    // lower-bound prunes per query
  double mean_abandons = 0.0;  // early abandons per query
};

KnnPhase KnnBench(const std::string& name, simd::Tier tier,
                  const std::vector<Sequence>& db,
                  const std::vector<Sequence>& queries, int reps) {
  index::StrgIndexParams params;
  params.num_clusters = 12;
  params.cluster_params.max_iterations = 8;
  index::StrgIndex idx(params);
  idx.AddSegment(core::BackgroundGraph{}, db);

  KnnPhase phase;
  phase.name = name;
  std::vector<double> lat;
  lat.reserve(queries.size() * static_cast<size_t>(reps));
  double dp = 0.0, prunes = 0.0, abandons = 0.0;
  size_t n = 0;
  ScopedTier scoped(tier);
  for (int r = 0; r < reps; ++r) {
    for (const Sequence& q : queries) {
      auto t0 = Clock::now();
      auto result = idx.Knn(q, 10);
      lat.push_back(MicrosSince(t0));
      dp += static_cast<double>(result.distance_computations);
      prunes += static_cast<double>(result.lb_prunes);
      abandons += static_cast<double>(result.early_abandons);
      ++n;
    }
  }
  phase.p50_us = Percentile(lat, 50.0);
  phase.p99_us = Percentile(lat, 99.0);
  phase.mean_dp = dp / static_cast<double>(n);
  phase.mean_prunes = prunes / static_cast<double>(n);
  phase.mean_abandons = abandons / static_cast<double>(n);
  return phase;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace
}  // namespace strg

int main() {
  using namespace strg;
  bench::Banner("BENCH distance",
                "fast EGED kernel + SIMD dispatch tiers: flat, lower-bound "
                "cascade, early abandoning, batched scans");

  const simd::Tier detected = simd::DetectedTier();
  const char* tier_name = simd::TierName(detected);
  const bool simd_active = detected != simd::Tier::kScalar;
  std::printf("simd tier: %s   hardware_concurrency: %u   padded stride: "
              "%zu doubles\n\n",
              tier_name, std::thread::hardware_concurrency(),
              simd::kPaddedDim);
  if (!simd_active) {
    std::printf("NOTE: scalar-only host — simd columns repeat the scalar "
                "measurement and speedups read 1.0x.\n\n");
  }

  const int scale = bench::EnvInt("STRG_BENCH_SCALE", 1);
  const int pairs = 200 * scale;
  const int reps = 20 * scale;

  std::vector<MicroRow> micro;
  std::printf("%-8s %9s | %9s %11s | %9s %11s | %7s %7s\n", "length",
              "ref_us", "sc_flat", "sc_bounded", "simd_flat", "simd_bound",
              "flat_x", "bound_x");
  for (size_t length : {8u, 16u, 32u, 64u}) {
    MicroRow row = MicroBench(length, pairs, reps);
    micro.push_back(row);
    std::printf("%-8zu %9.3f | %9.3f %11.3f | %9.3f %11.3f | %6.2fx %6.2fx\n",
                row.length, row.ref_us, row.scalar_flat_us,
                row.scalar_bounded_us, row.simd_flat_us, row.simd_bounded_us,
                row.scalar_flat_us / row.simd_flat_us,
                row.scalar_bounded_us / row.simd_bounded_us);
  }

  std::printf("\n%-24s %12s %12s %9s\n", "kernel", "scalar_us", "simd_us",
              "speedup");
  BatchBench batch = KernelBench(4 * reps);
  for (const KernelRow& k : batch.kernels) {
    std::printf("%-24s %12.4f %12.4f %8.2fx\n", k.name.c_str(), k.scalar_us,
                k.simd_us, k.scalar_us / k.simd_us);
  }
  std::printf("\nbatched one-vs-many (64 candidates, len 64, %s tier):\n",
              tier_name);
  std::printf("  one-at-a-time bounded: %.3f us/cand\n", batch.loop_us);
  std::printf("  EgedBatchBounded:      %.3f us/cand (%.2fx)\n",
              batch.batch_us, batch.loop_us / batch.batch_us);
  std::printf("  steady-state heap allocations after warm-up: %llu\n",
              static_cast<unsigned long long>(batch.steady_allocs));
  if (batch.steady_allocs != 0) {
    std::printf("FAIL: EgedBatchBounded allocated on the steady-state "
                "path\n");
    return 1;
  }

  // kNN cold path: identical index structure, only the dispatch tier
  // differs.
  synth::SynthParams sp;
  sp.items_per_cluster = 20;
  sp.noise_pct = 8.0;
  sp.seed = 77;
  auto db = synth::GenerateSyntheticOgs(sp).Sequences(synth::SynthScaling());
  sp.items_per_cluster = 1;
  sp.seed = 78;
  auto qall = synth::GenerateSyntheticOgs(sp).Sequences(
      synth::SynthScaling());
  std::vector<dist::Sequence> queries(qall.begin(),
                                      qall.begin() + 24);

  KnnPhase fast_scalar = KnnBench("knn_fast_scalar", simd::Tier::kScalar, db,
                                  queries, 4 * scale);
  KnnPhase fast_simd = KnnBench("knn_fast_simd", detected, db, queries,
                                4 * scale);
  double simd_speedup_p50 = fast_scalar.p50_us / fast_simd.p50_us;
  std::printf("\n%-22s %10s %10s %10s %10s %10s\n", "knn phase", "p50_us",
              "p99_us", "dp/query", "prunes/q", "abandon/q");
  for (const KnnPhase* p : {&fast_scalar, &fast_simd}) {
    std::printf("%-22s %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                p->name.c_str(), p->p50_us, p->p99_us, p->mean_dp,
                p->mean_prunes, p->mean_abandons);
  }
  if (simd_active) {
    std::printf("\nuncached kNN p50 speedup, simd vs scalar fast path: %.2fx\n"
                "  (expected ~1x: tight-tau kNN DPs are band-pruned to "
                "narrow rows whose\n   horizontal min-chain is scalar-bound; "
                "the 2x acceptance floor applies to\n   the wide-band "
                "kernels above — exact DP, point batch — where the "
                "wavefront\n   and lane-parallel forms actually run)\n",
                simd_speedup_p50);
  } else {
    std::printf("\nuncached kNN simd speedup: n/a — scalar-only host\n");
  }

  std::string json = "{\"simd_tier\":\"" + std::string(tier_name) + "\"";
  json += ",\"simd_active\":" + std::string(simd_active ? "true" : "false");
  json += ",\"hardware_concurrency\":" +
          std::to_string(std::thread::hardware_concurrency());
  json += ",\"padded_stride\":" + std::to_string(simd::kPaddedDim);
  json += ",\"micro\":[";
  for (size_t i = 0; i < micro.size(); ++i) {
    const MicroRow& r = micro[i];
    if (i != 0) json += ",";
    json += "{\"length\":" + std::to_string(r.length);
    json += ",\"ref_us\":" + Num(r.ref_us);
    json += ",\"scalar_flat_us\":" + Num(r.scalar_flat_us);
    json += ",\"scalar_bounded_us\":" + Num(r.scalar_bounded_us);
    json += ",\"simd_flat_us\":" + Num(r.simd_flat_us);
    json += ",\"simd_bounded_us\":" + Num(r.simd_bounded_us);
    json += ",\"flat_speedup\":" + Num(r.ref_us / r.simd_flat_us);
    json += ",\"bounded_speedup\":" + Num(r.ref_us / r.simd_bounded_us);
    json += ",\"simd_flat_speedup\":" + Num(r.scalar_flat_us /
                                            r.simd_flat_us);
    json += ",\"simd_bounded_speedup\":" + Num(r.scalar_bounded_us /
                                               r.simd_bounded_us);
    json += ",\"prune_rate\":" + Num(r.prune_rate);
    json += ",\"abandon_rate\":" + Num(r.abandon_rate) + "}";
  }
  json += "],\"kernels\":[";
  for (size_t i = 0; i < batch.kernels.size(); ++i) {
    const KernelRow& k = batch.kernels[i];
    if (i != 0) json += ",";
    json += "{\"kernel\":\"" + k.name + "\"";
    json += ",\"scalar_us\":" + Num(k.scalar_us);
    json += ",\"simd_us\":" + Num(k.simd_us);
    json += ",\"simd_speedup\":" + Num(k.scalar_us / k.simd_us) + "}";
  }
  json += "],\"batch\":{\"loop_us_per_candidate\":" + Num(batch.loop_us);
  json += ",\"batch_us_per_candidate\":" + Num(batch.batch_us);
  json += ",\"batch_speedup\":" + Num(batch.loop_us / batch.batch_us);
  json += ",\"steady_state_allocations\":" +
          std::to_string(batch.steady_allocs);
  json += "},\"knn\":[";
  bool first = true;
  for (const KnnPhase* p : {&fast_scalar, &fast_simd}) {
    if (!first) json += ",";
    first = false;
    json += "{\"phase\":\"" + p->name + "\"";
    json += ",\"p50_us\":" + Num(p->p50_us);
    json += ",\"p99_us\":" + Num(p->p99_us);
    json += ",\"mean_distance_computations\":" + Num(p->mean_dp);
    json += ",\"mean_lb_prunes\":" + Num(p->mean_prunes);
    json += ",\"mean_early_abandons\":" + Num(p->mean_abandons) + "}";
  }
  json += "],\"knn_simd_p50_speedup\":" + Num(simd_speedup_p50) + "}";

  std::ofstream out("BENCH_distance.json");
  out << json << "\n";
  std::cout << "report written to BENCH_distance.json\n";
  return 0;
}
