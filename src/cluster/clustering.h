#ifndef STRG_CLUSTER_CLUSTERING_H_
#define STRG_CLUSTER_CLUSTERING_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "distance/distance.h"
#include "util/thread_pool.h"

namespace strg::cluster {

/// Distance-computation accounting for a clustering run (the quantity the
/// paper reports as build cost). Split by call site so the bounded-assignment
/// ablation (DESIGN.md section 14) can show where triangle-inequality pruning
/// saves work and where it merely shifts it (drift evaluations, exact
/// log-likelihood matrices).
struct ClusterStats {
  uint64_t seeding_distances = 0;  ///< D^2 pass Bounded() evaluations
  uint64_t assign_distances = 0;   ///< assignment/classification scan evals
  uint64_t assign_prunes = 0;      ///< centroids skipped via lower bounds
  uint64_t hamerly_skips = 0;      ///< whole scans answered by ub < min lb
  uint64_t bound_reevals = 0;      ///< exact re-evals after an inconclusive
                                   ///< bounded eval in score space
  uint64_t matrix_distances = 0;   ///< full exact-matrix refreshes
  uint64_t drift_distances = 0;    ///< old-vs-new centroid drift evals
  uint64_t guard_distances = 0;    ///< anti-collapse pairwise centroid evals
  uint64_t reseeds = 0;            ///< dead-component + coinciding reseeds
  /// Bounded-kernel internals (flat path only), forwarded from
  /// dist::EgedKernelStats: DPs entered, cascade prunes, row abandons.
  uint64_t kernel_dp_evals = 0;
  uint64_t kernel_lb_prunes = 0;
  uint64_t kernel_early_abandons = 0;

  /// Every distance evaluation the run performed, of any kind.
  uint64_t TotalDistances() const {
    return seeding_distances + assign_distances + matrix_distances +
           drift_distances + guard_distances;
  }
  /// Evaluations attributable to centroid assignment (the term the bounds
  /// attack): scans plus the full matrices the unbounded path assigns from,
  /// plus the drift evals the bounded path spends to maintain its bounds.
  uint64_t AssignmentDistances() const {
    return assign_distances + matrix_distances + drift_distances;
  }

  bool operator==(const ClusterStats&) const = default;

  void Merge(const ClusterStats& o) {
    seeding_distances += o.seeding_distances;
    assign_distances += o.assign_distances;
    assign_prunes += o.assign_prunes;
    hamerly_skips += o.hamerly_skips;
    bound_reevals += o.bound_reevals;
    matrix_distances += o.matrix_distances;
    drift_distances += o.drift_distances;
    guard_distances += o.guard_distances;
    reseeds += o.reseeds;
    kernel_dp_evals += o.kernel_dp_evals;
    kernel_lb_prunes += o.kernel_lb_prunes;
    kernel_early_abandons += o.kernel_early_abandons;
  }
};

/// Result shared by every clustering algorithm in this module.
struct Clustering {
  std::vector<int> assignment;            ///< cluster id per input item
  std::vector<dist::Sequence> centroids;  ///< one synthesized OG per cluster
  std::vector<double> weights;            ///< mixture weights w_k (EM)
  std::vector<double> sigmas;             ///< component sigma_k (EM)
  double log_likelihood = -std::numeric_limits<double>::infinity();
  /// Classification log-likelihood: sum over items of the log density of
  /// their assigned component (uniform prior). This is the likelihood the
  /// classification-EM fit actually optimizes, and the one model selection
  /// (BIC, Section 4.2) scores — the mixture likelihood's log w_k term
  /// penalizes every extra component by log K per item, which would mask
  /// genuine cluster structure at moderate separations.
  double classification_log_likelihood =
      -std::numeric_limits<double>::infinity();
  int iterations = 0;  ///< E/M (or Lloyd) iterations actually run

  size_t NumClusters() const { return centroids.size(); }
};

/// Shared knobs for the iterative clusterers.
struct ClusterParams {
  int max_iterations = 30;
  double convergence_tol = 1e-4;  ///< on mixture weights / assignment churn
  uint64_t seed = 13;             ///< centroid initialization seed
  /// Independent restarts (different seeds); the fit with the best
  /// classification likelihood wins. CEM converges to local optima — e.g.
  /// two seeds landing in one natural cluster merge two others — and
  /// restarts are the standard remedy.
  int restarts = 1;
  /// Optional worker pool: when set, the K x M distance matrix of each
  /// EM iteration is computed in parallel (the distance functions are
  /// pure; CountingDistance is atomic). Not owned.
  ThreadPool* pool = nullptr;
  /// Floor on each component's sigma. Features live on a ~[0, 10] scale
  /// (FeatureScaling), so this guards against the classic GMM singularity
  /// (a component collapsing onto near-duplicate OGs with sigma -> 0 and
  /// unbounded likelihood), which would make BIC over-select K.
  double min_sigma = 0.05;
  /// A/B knob for the triangle-inequality bounded assignment path
  /// (src/cluster/bounds.h), mirroring the use_fast_kernel pattern: results
  /// are bit-identical either way (cluster_bounds_test pins this), so the
  /// knob exists to prove it and to measure the saving, not to trade
  /// accuracy. Only engages when the distance reports IsMetric(); non-metric
  /// measures always take the exhaustive path.
  bool use_bounds = true;
  /// Optional sink for distance-computation counters. Not owned; accumulated
  /// into (never reset) so a caller can aggregate across runs. Must not be
  /// shared across threads — EmCluster's parallel restarts merge per-restart
  /// counters serially before touching it.
  ClusterStats* stats = nullptr;
};

}  // namespace strg::cluster

#endif  // STRG_CLUSTER_CLUSTERING_H_
