// ctest-labels: distance
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "distance/eged.h"
#include "distance/eged_fast.h"
#include "distance/simd/dispatch.h"
#include "index/strg_index.h"
#include "synth/generator.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace strg {
namespace {

using dist::EgedKernelStats;
using dist::EgedLowerBound;
using dist::EgedMetric;
using dist::EgedMetricBounded;
using dist::EgedMetricBoundedSeq;
using dist::EgedMetricFast;
using dist::EgedMetricFlat;
using dist::EgedWorkspace;
using dist::FeatureVec;
using dist::FlatSequence;
using dist::kFeatureDim;
using dist::Sequence;

constexpr double kInf = std::numeric_limits<double>::infinity();

Sequence RandomSequence(Rng* rng, size_t min_len = 0, size_t max_len = 24) {
  size_t len = static_cast<size_t>(rng->UniformInt(
      static_cast<int>(min_len), static_cast<int>(max_len)));
  Sequence s(len);
  FeatureVec cur{};
  for (size_t k = 0; k < kFeatureDim; ++k) cur[k] = rng->Uniform(0.0, 10.0);
  for (size_t i = 0; i < len; ++i) {
    for (size_t k = 0; k < kFeatureDim; ++k) {
      cur[k] += rng->Gaussian(0.0, 0.5);
    }
    s[i] = cur;
  }
  return s;
}

FeatureVec RandomGap(Rng* rng) {
  FeatureVec g{};
  for (size_t k = 0; k < kFeatureDim; ++k) g[k] = rng->Uniform(0.0, 5.0);
  return g;
}

// ---------------------------------------------------------------------------
// Kernel equivalence: the flat kernel is the reference kernel, bit for bit.
// ---------------------------------------------------------------------------

TEST(DistanceKernel, FlatKernelMatchesReferenceExactly) {
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    FeatureVec g = trial % 2 == 0 ? FeatureVec{} : RandomGap(&rng);
    Sequence a = RandomSequence(&rng);
    Sequence b = RandomSequence(&rng);
    double ref = EgedMetric(a, b, g);
    // EXPECT_DOUBLE_EQ demands bit-identical values (ULP distance 0 given
    // both are finite) — the fast path must not drift from the reference.
    EXPECT_DOUBLE_EQ(EgedMetricFast(a, b, g), ref);
  }
}

TEST(DistanceKernel, BoundedWithInfiniteTauIsExact) {
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    FeatureVec g = RandomGap(&rng);
    Sequence a = RandomSequence(&rng);
    Sequence b = RandomSequence(&rng);
    double ref = EgedMetric(a, b, g);
    EXPECT_DOUBLE_EQ(EgedMetricBoundedSeq(a, b, kInf, g), ref);
  }
}

TEST(DistanceKernel, BoundedHonorsItsContractAtRandomTaus) {
  // Contract: d <= tau  =>  exact d; d > tau  =>  some v in (tau, d].
  Rng rng(13);
  EgedKernelStats stats;
  EgedWorkspace ws;
  for (int trial = 0; trial < 2000; ++trial) {
    FeatureVec g = RandomGap(&rng);
    Sequence a = RandomSequence(&rng);
    Sequence b = RandomSequence(&rng);
    double exact = EgedMetric(a, b, g);
    // Sample taus on both sides of the exact distance, including tiny ones
    // that force the lower-bound cascade to answer.
    double tau = exact * rng.Uniform(0.0, 2.0);
    FlatSequence fa(a, g), fb(b, g);
    double v = EgedMetricBounded(fa, fb, tau, &ws, &stats);
    if (exact <= tau) {
      EXPECT_DOUBLE_EQ(v, exact);
    } else {
      EXPECT_GT(v, tau);
      EXPECT_LE(v, exact);
    }
  }
  // The sweep must actually exercise every outcome of the cascade.
  EXPECT_GT(stats.dp_evals, 0u);
  EXPECT_GT(stats.lb_prunes, 0u);
  EXPECT_GT(stats.early_abandons, 0u);
}

TEST(DistanceKernel, LowerBoundIsAdmissibleOnAThousandPairs) {
  Rng rng(14);
  for (int trial = 0; trial < 1000; ++trial) {
    FeatureVec g = RandomGap(&rng);
    Sequence a = RandomSequence(&rng);
    Sequence b = RandomSequence(&rng);
    FlatSequence fa(a, g), fb(b, g);
    double lb = EgedLowerBound(fa, fb);
    double exact = EgedMetric(a, b, g);
    EXPECT_GE(lb, 0.0);
    EXPECT_LE(lb, exact) << "lower bound exceeds the exact distance";
  }
}

TEST(DistanceKernel, FastKernelPreservesTheMetricAxioms) {
  Rng rng(15);
  FeatureVec g = RandomGap(&rng);
  for (int trial = 0; trial < 50; ++trial) {
    Sequence a = RandomSequence(&rng, 1);
    Sequence b = RandomSequence(&rng, 1);
    Sequence c = RandomSequence(&rng, 1);
    double ab = EgedMetricFast(a, b, g);
    double ac = EgedMetricFast(a, c, g);
    double bc = EgedMetricFast(b, c, g);
    EXPECT_GE(ab, 0.0);
    EXPECT_DOUBLE_EQ(EgedMetricFast(a, a, g), 0.0);
    EXPECT_NEAR(ab, EgedMetricFast(b, a, g), 1e-9);
    EXPECT_LE(ac, ab + bc + 1e-9);
    EXPECT_LE(ab, ac + bc + 1e-9);
    EXPECT_LE(bc, ab + ac + 1e-9);
  }
}

TEST(DistanceKernel, FlatSequenceExposesTheDpsGapAccumulation) {
  Rng rng(16);
  FeatureVec g = RandomGap(&rng);
  Sequence a = RandomSequence(&rng, 1);
  FlatSequence fa(a, g);
  ASSERT_EQ(fa.size(), a.size());
  // gap_mass == EGED_M(a, {}) — the DP's whole-sequence deletion column.
  EXPECT_DOUBLE_EQ(fa.gap_mass(), EgedMetric(a, {}, g));
  // Reassigning in place (scratch reuse) reproduces a fresh build.
  Sequence b = RandomSequence(&rng, 1);
  FlatSequence fb(b, g);
  fa.Assign(b, g);
  EXPECT_EQ(fa.size(), fb.size());
  EXPECT_DOUBLE_EQ(fa.gap_mass(), fb.gap_mass());
}

// ---------------------------------------------------------------------------
// Index integration: the query path returns exactly what a brute-force
// scan returns, and the parallel build is deterministic.
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<Sequence> db;
  std::vector<Sequence> queries;
};

Workload MakeWorkload(uint64_t seed = 77) {
  synth::SynthParams params;
  params.items_per_cluster = 6;
  params.noise_pct = 8.0;
  params.seed = seed;
  Workload w;
  w.db = synth::GenerateSyntheticOgs(params).Sequences(synth::SynthScaling());
  params.items_per_cluster = 1;
  params.seed = seed + 1;
  auto q =
      synth::GenerateSyntheticOgs(params).Sequences(synth::SynthScaling());
  w.queries.assign(q.begin(), q.begin() + 6);
  return w;
}

index::StrgIndexParams BaseParams() {
  index::StrgIndexParams params;
  params.num_clusters = 12;
  params.cluster_params.max_iterations = 6;
  return params;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(DistanceKernel, QueryPathsMatchBruteForceScanBitForBit) {
  // The oracle is a linear scan with the seed DP (EgedMetric) over every
  // indexed OG, so it checks the tree's pruning as well as the kernel.
  // Two segments, the second's ids after the first's, so the multi-root
  // scan (worst-of-k carried across roots) is exercised too.
  Workload w = MakeWorkload();
  Workload w2 = MakeWorkload(91);
  index::StrgIndexParams params = BaseParams();
  index::StrgIndex idx(params);
  idx.AddSegment(core::BackgroundGraph{}, w.db);
  std::vector<size_t> ids2(w2.db.size());
  for (size_t i = 0; i < ids2.size(); ++i) ids2[i] = w.db.size() + i;
  idx.AddSegment(core::BackgroundGraph{}, w2.db, ids2);
  std::vector<Sequence> all = w.db;
  all.insert(all.end(), w2.db.begin(), w2.db.end());
  ASSERT_EQ(idx.NumIndexedOgs(), all.size());

  // A hit is right when its distance is bit-equal, rank by rank, to the
  // scan's and to EgedMetric of the OG its id names; an OG tied at the cut
  // may stand in for any other of its tie run.
  auto expect_matches_scan = [&](const Sequence& q,
                                 const std::vector<index::KnnHit>& hits,
                                 const std::vector<double>& scan) {
    ASSERT_LE(hits.size(), scan.size());
    std::vector<bool> seen(all.size(), false);
    for (size_t i = 0; i < hits.size(); ++i) {
      const index::KnnHit& h = hits[i];
      ASSERT_LT(h.og_id, all.size());
      EXPECT_FALSE(seen[h.og_id]) << "OG " << h.og_id << " reported twice";
      seen[h.og_id] = true;
      EXPECT_EQ(Bits(h.distance), Bits(scan[i])) << "rank " << i;
      EXPECT_EQ(Bits(h.distance),
                Bits(EgedMetric(q, all[h.og_id], params.metric_gap)))
          << "rank " << i << " names OG " << h.og_id;
    }
  };

  for (const Sequence& q : w.queries) {
    std::vector<double> scan(all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      scan[i] = EgedMetric(q, all[i], params.metric_gap);
    }
    std::sort(scan.begin(), scan.end());

    auto knn = idx.Knn(q, 5);
    ASSERT_EQ(knn.hits.size(), 5u);
    expect_matches_scan(q, knn.hits, scan);
    // The search prunes: it runs fewer DPs than the scan.
    EXPECT_LT(knn.distance_computations, all.size());

    const double radius = scan[4];
    auto range = idx.RangeSearch(q, radius);
    const size_t within = static_cast<size_t>(
        std::upper_bound(scan.begin(), scan.end(), radius) - scan.begin());
    EXPECT_EQ(range.hits.size(), within);
    expect_matches_scan(q, range.hits, scan);
  }
}

TEST(DistanceKernel, QueryResultsAreBitwiseInvariantUnderForcedScalarTier) {
  // The dispatch tier must be a pure speed decision: forcing the scalar
  // tier on the same index must reproduce every hit distance bitwise AND
  // every pruning counter exactly (the cascade routes identically).
  namespace simd = dist::simd;
  Workload w = MakeWorkload();
  index::StrgIndex idx(BaseParams());
  idx.AddSegment(core::BackgroundGraph{}, w.db);

  const simd::Tier saved = simd::ActiveTier();
  for (const Sequence& q : w.queries) {
    ASSERT_TRUE(simd::ForceTier(simd::DetectedTier()));
    auto best = idx.Knn(q, 5);
    double radius = best.hits.empty() ? 1.0 : best.hits.back().distance;
    auto best_range = idx.RangeSearch(q, radius);
    ASSERT_TRUE(simd::ForceTier(simd::Tier::kScalar));
    auto ref = idx.Knn(q, 5);
    auto ref_range = idx.RangeSearch(q, radius);
    simd::ForceTier(saved);

    ASSERT_EQ(best.hits.size(), ref.hits.size());
    for (size_t i = 0; i < best.hits.size(); ++i) {
      EXPECT_EQ(best.hits[i].og_id, ref.hits[i].og_id);
      EXPECT_EQ(Bits(best.hits[i].distance), Bits(ref.hits[i].distance))
          << "kNN distance drifted across tiers";
    }
    EXPECT_EQ(best.distance_computations, ref.distance_computations);
    EXPECT_EQ(best.lb_prunes, ref.lb_prunes);
    EXPECT_EQ(best.early_abandons, ref.early_abandons);

    ASSERT_EQ(best_range.hits.size(), ref_range.hits.size());
    for (size_t i = 0; i < best_range.hits.size(); ++i) {
      EXPECT_EQ(best_range.hits[i].og_id, ref_range.hits[i].og_id);
      EXPECT_DOUBLE_EQ(best_range.hits[i].distance,
                       ref_range.hits[i].distance);
    }
  }
  simd::ForceTier(saved);
}

TEST(DistanceKernel, ReportedKnnDistancesAreTrueMetricDistances) {
  Workload w = MakeWorkload();
  index::StrgIndex idx(BaseParams());
  idx.AddSegment(core::BackgroundGraph{}, w.db);
  for (const Sequence& q : w.queries) {
    auto result = idx.Knn(q, 5);
    for (const auto& h : result.hits) {
      // Early abandoning may only reject candidates, never distort the
      // distance of anything that makes the answer.
      EXPECT_DOUBLE_EQ(h.distance, EgedMetric(q, w.db[h.og_id]));
    }
  }
}

TEST(DistanceKernel, ParallelBuildIsDeterministic) {
  Workload w = MakeWorkload();
  ThreadPool pool(4);

  index::StrgIndexParams serial_params = BaseParams();
  serial_params.cluster_params.restarts = 3;
  index::StrgIndexParams pooled_params = serial_params;
  pooled_params.pool = &pool;
  pooled_params.cluster_params.pool = &pool;

  index::StrgIndex serial_idx(serial_params);
  index::StrgIndex pooled_idx(pooled_params);
  int sroot = serial_idx.AddSegment(core::BackgroundGraph{}, w.db);
  int proot = pooled_idx.AddSegment(core::BackgroundGraph{}, w.db);
  ASSERT_EQ(sroot, proot);

  ASSERT_EQ(serial_idx.NumClusters(), pooled_idx.NumClusters());
  ASSERT_EQ(serial_idx.NumIndexedOgs(), pooled_idx.NumIndexedOgs());
  for (size_t c = 0; c < serial_idx.NumClusters(); ++c) {
    auto serial_keys = serial_idx.LeafKeys(sroot, c);
    auto pooled_keys = pooled_idx.LeafKeys(proot, c);
    ASSERT_EQ(serial_keys.size(), pooled_keys.size());
    for (size_t i = 0; i < serial_keys.size(); ++i) {
      EXPECT_DOUBLE_EQ(serial_keys[i], pooled_keys[i]);
    }
  }
  for (const Sequence& q : w.queries) {
    auto a = serial_idx.Knn(q, 5);
    auto b = pooled_idx.Knn(q, 5);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (size_t i = 0; i < a.hits.size(); ++i) {
      EXPECT_EQ(a.hits[i].og_id, b.hits[i].og_id);
      EXPECT_DOUBLE_EQ(a.hits[i].distance, b.hits[i].distance);
    }
  }
}

TEST(DistanceKernel, PerQueryCountersAreStableUnderConcurrentLoad) {
  // The counter-race fix: each query counts its own work locally, so the
  // same query returns the same distance_computations no matter how many
  // other queries run at the same time.
  Workload w = MakeWorkload();
  index::StrgIndex idx(BaseParams());
  idx.AddSegment(core::BackgroundGraph{}, w.db);

  std::vector<index::KnnResult> expected;
  for (const Sequence& q : w.queries) expected.push_back(idx.Knn(q, 5));

  constexpr int kThreads = 4;
  constexpr int kRepeats = 25;
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (size_t qi = 0; qi < w.queries.size(); ++qi) {
          auto result = idx.Knn(w.queries[qi], 5);
          if (result.distance_computations !=
                  expected[qi].distance_computations ||
              result.lb_prunes != expected[qi].lb_prunes ||
              result.early_abandons != expected[qi].early_abandons) {
            failures[t].push_back("query " + std::to_string(qi) +
                                  " counters drifted under load");
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& per_thread : failures) {
    for (const auto& f : per_thread) ADD_FAILURE() << f;
  }
}

TEST(DistanceKernel, GlobalCounterAccumulatesAllQueryWork) {
  Workload w = MakeWorkload();
  index::StrgIndex idx(BaseParams());
  idx.AddSegment(core::BackgroundGraph{}, w.db);
  idx.ResetDistanceCount();
  size_t local_total = 0;
  for (const Sequence& q : w.queries) {
    local_total += idx.Knn(q, 5).distance_computations;
  }
  EXPECT_EQ(idx.TotalDistanceComputations(), local_total);
}

}  // namespace
}  // namespace strg
