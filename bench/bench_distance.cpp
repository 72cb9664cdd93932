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

#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "bench_common.h"
#include "distance/dtw.h"
#include "distance/edr.h"
#include "distance/eged.h"
#include "distance/eged_fast.h"
#include "distance/simd/dispatch.h"
#include "index/strg_index.h"
#include "synth/generator.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace strg {
namespace {

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

struct MicroRow {
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
  volatile double sink = 0.0;

  const double calls = static_cast<double>(pairs) * reps;
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < pairs; ++i) sink = sink + EgedMetric(a[i], b[i]);
  }
  row.ref_us = timer.Seconds() * 1e6 / calls;

  EgedWorkspace ws;
  EgedKernelStats stats;
  for (simd::Tier tier : {simd::Tier::kScalar, simd::DetectedTier()}) {
    ScopedTier scoped(tier);
    const bool is_scalar = tier == simd::Tier::kScalar;
    timer.Restart();
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < pairs; ++i) {
        sink = sink + EgedMetricFlat(fa[i], fb[i], &ws);
      }
    }
    const double flat = timer.Seconds() * 1e6 / calls;
    stats = EgedKernelStats{};
    timer.Restart();
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < pairs; ++i) {
        sink = sink + EgedMetricBounded(fa[i], fb[i], tau, &ws, &stats);
      }
    }
    const double bounded = timer.Seconds() * 1e6 / calls;
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
    Timer timer;
    body(reps);
    const double us =
        timer.Seconds() * 1e6 / (static_cast<double>(reps) * units);
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

  BatchBench batch;
  volatile double sink = 0.0;

  batch.kernels.push_back(TimeKernel(
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
  batch.kernels.push_back(TimeKernel(
      "eged_lower_bound_batch", reps * 50, static_cast<double>(kCands),
      [&](int n) {
        for (int r = 0; r < n; ++r) {
          EgedLowerBoundBatch(query, cands.data(), kCands, out.data());
          sink = sink + out[0];
        }
      }));
  batch.kernels.push_back(TimeKernel(
      "eged_exact_dp", reps, static_cast<double>(kCands), [&](int n) {
        for (int r = 0; r < n; ++r) {
          for (size_t i = 0; i < kCands; ++i) {
            sink = sink + EgedMetricFlat(query, flats[i], &ws);
          }
        }
      }));
  batch.kernels.push_back(TimeKernel(
      "eged_batch_bounded", reps, static_cast<double>(kCands), [&](int n) {
        for (int r = 0; r < n; ++r) {
          EgedBatchBounded(query, cands.data(), taus.data(), kCands,
                           out.data(), &ws);
          sink = sink + out[0];
        }
      }));
  batch.kernels.push_back(TimeKernel(
      "dtw", reps, static_cast<double>(kCands), [&](int n) {
        for (int r = 0; r < n; ++r) {
          for (size_t i = 0; i < kCands; ++i) {
            sink = sink + dist::Dtw(qs, seqs[i]);
          }
        }
      }));
  batch.kernels.push_back(TimeKernel(
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
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      for (size_t i = 0; i < kCands; ++i) {
        sink = sink + EgedMetricBounded(query, flats[i], taus[i], &ws);
      }
    }
    batch.loop_us =
        timer.Seconds() * 1e6 / (static_cast<double>(reps) * kCands);
    timer.Restart();
    for (int r = 0; r < reps; ++r) {
      EgedBatchBounded(query, cands.data(), taus.data(), kCands, out.data(),
                       &ws);
      sink = sink + out[0];
    }
    batch.batch_us =
        timer.Seconds() * 1e6 / (static_cast<double>(reps) * kCands);

    // Steady-state allocation proof: the batch call above warmed every
    // buffer (workspace rows, reversed-query scratch); from here on the
    // batch entry point must not touch the heap at all.
    bench::StartAllocCount();
    for (int r = 0; r < 3; ++r) {
      EgedBatchBounded(query, cands.data(), taus.data(), kCands, out.data(),
                       &ws);
      sink = sink + out[0];
    }
    batch.steady_allocs = bench::StopAllocCount().allocs;
  }
  (void)sink;
  return batch;
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
      Timer timer;
      auto result = idx.Knn(q, 10);
      lat.push_back(timer.Seconds() * 1e6);
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

}  // namespace
}  // namespace strg

int main() {
  using namespace strg;
  bench::Banner("BENCH distance",
                "fast EGED kernel + SIMD dispatch tiers: flat, lower-bound "
                "cascade, early abandoning, batched scans");
  // The report's simd_tier stamp is the active tier; the simd columns below
  // run the detected tier, which differs under STRG_FORCE_SCALAR=1.
  bench::JsonReport report("BENCH_distance.json");

  const simd::Tier detected = simd::DetectedTier();
  const char* tier_name = simd::TierName(detected);
  const bool simd_active = detected != simd::Tier::kScalar;
  std::printf("detected simd tier: %s   hardware_concurrency: %u   "
              "padded stride: %zu doubles\n\n",
              tier_name, std::thread::hardware_concurrency(),
              simd::kPaddedDim);
  if (!simd_active) {
    std::printf("NOTE: scalar-only host — simd columns repeat the scalar "
                "measurement and speedups read 1.0x.\n\n");
  }
  report.AddString("detected_tier", tier_name);
  report.AddScalar("simd_active", simd_active ? 1.0 : 0.0);

  const int scale = bench::EnvInt("STRG_BENCH_SCALE", 1);
  const int pairs = 200 * scale;
  const int reps = 20 * scale;

  Table micro({"length", "ref_us", "scalar_flat_us", "scalar_bounded_us",
               "simd_flat_us", "simd_bounded_us", "flat_speedup",
               "bounded_speedup", "simd_flat_speedup", "simd_bounded_speedup",
               "prune_rate", "abandon_rate"});
  for (size_t length : {8u, 16u, 32u, 64u}) {
    MicroRow r = MicroBench(length, pairs, reps);
    std::vector<std::string> cells{std::to_string(length)};
    for (double v : {r.ref_us, r.scalar_flat_us, r.scalar_bounded_us,
                     r.simd_flat_us, r.simd_bounded_us,
                     r.ref_us / r.simd_flat_us, r.ref_us / r.simd_bounded_us,
                     r.scalar_flat_us / r.simd_flat_us,
                     r.scalar_bounded_us / r.simd_bounded_us, r.prune_rate,
                     r.abandon_rate}) {
      cells.push_back(FormatDouble(v));
    }
    micro.AddRow(std::move(cells));
  }
  micro.Print(std::cout);
  report.AddTable("micro", micro);

  BatchBench batch = KernelBench(4 * reps);
  Table kernels({"kernel", "scalar_us", "simd_us", "simd_speedup"});
  for (const KernelRow& k : batch.kernels) {
    kernels.AddRow({k.name, FormatDouble(k.scalar_us, 4),
                    FormatDouble(k.simd_us, 4),
                    FormatDouble(k.scalar_us / k.simd_us)});
  }
  std::cout << "\n";
  kernels.Print(std::cout);
  report.AddTable("kernels", kernels);

  std::printf("\nbatched one-vs-many (64 candidates, len 64, %s tier):\n",
              tier_name);
  Table batch_table({"loop_us_per_candidate", "batch_us_per_candidate",
                     "batch_speedup", "steady_state_allocations"});
  batch_table.AddRow({FormatDouble(batch.loop_us),
                      FormatDouble(batch.batch_us),
                      FormatDouble(batch.loop_us / batch.batch_us),
                      std::to_string(batch.steady_allocs)});
  batch_table.Print(std::cout);
  report.AddTable("batch", batch_table);
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
  Table knn({"phase", "p50_us", "p99_us", "mean_distance_computations",
             "mean_lb_prunes", "mean_early_abandons"});
  for (const KnnPhase* p : {&fast_scalar, &fast_simd}) {
    knn.AddRow({p->name, FormatDouble(p->p50_us), FormatDouble(p->p99_us),
                FormatDouble(p->mean_dp), FormatDouble(p->mean_prunes),
                FormatDouble(p->mean_abandons)});
  }
  std::cout << "\n";
  knn.Print(std::cout);
  report.AddTable("knn", knn);
  report.AddScalar("knn_simd_p50_speedup", simd_speedup_p50);
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
  report.Write();
  return 0;
}
