#ifndef STRG_INDEX_STRG_INDEX_H_
#define STRG_INDEX_STRG_INDEX_H_

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/clustering.h"
#include "distance/distance.h"
#include "distance/eged.h"
#include "distance/eged_fast.h"
#include "strg/decompose.h"
#include "strg/object_graph.h"
#include "util/thread_pool.h"

namespace strg::storage {
class PagedRecordStore;  // out-of-core leaf backing (storage/pager)
}

namespace strg::index {

/// Configuration of the STRG-Index (Section 5).
struct StrgIndexParams {
  /// Number of OG clusters per background segment. 0 = choose K by the BIC
  /// sweep over [k_min, k_max] (Section 4.2).
  size_t num_clusters = 0;
  size_t k_min = 2;
  size_t k_max = 12;

  /// A leaf holding more OGs than this triggers the Section 5.3 split test
  /// (EM with K = 2 vs K = 1, decided by BIC).
  size_t leaf_split_threshold = 48;

  cluster::ClusterParams cluster_params;

  /// Fixed gap constant g of the metric EGED used for index keys.
  dist::FeatureVec metric_gap{};

  /// Attribute tolerances for matching a query BG against root records.
  graph::AttrTolerance bg_tolerance;

  /// Optional worker pool (not owned). When set, AddSegment fans the leaf
  /// placement out with ParallelFor, EM restarts run concurrently (the pool
  /// is also handed to cluster_params when the caller sets it there), the
  /// split reassignment parallelizes, and BG-similarity root routing fans
  /// out for many-segment indexes. Build results are deterministic: every
  /// parallel loop writes disjoint slots and reductions run serially in
  /// index order. Queries never borrow this pool implicitly.
  ThreadPool* pool = nullptr;

  /// Query-path kernel selector. true (default) runs the flat bounded EGED
  /// kernel (lower-bound cascade + early abandoning, eged_fast.h) on
  /// Knn/RangeSearch; false runs the reference heap-allocating DP — kept as
  /// an A/B knob so tests and bench_distance can pin the fast path to the
  /// reference results and measure the speedup. Both return identical hits
  /// and distances; build paths always use the (numerically identical) flat
  /// exact kernel.
  bool use_fast_kernel = true;

  /// Out-of-core leaf backing (not owned; nullptr = everything in RAM, the
  /// pre-pager behavior). When set, each leaf entry's OG sequence is
  /// serialized into this store at insert; what stays resident per entry is
  /// its key, id, record id, length, and the 128-byte dist::LbSummary the
  /// lower-bound cascade reads. Once a query has a finite pruning radius
  /// it runs the cascade on that summary first and fetches, decodes and
  /// re-flattens (through the store's buffer cache) only the candidates it
  /// cannot prune — the ones that reach the DP. A fetch decodes into
  /// per-thread scratch (one sequence and one flat form for kNN, a pool of
  /// flat forms for a range query's band) that is reused across
  /// candidates and queries, so a fetch of an inline record (one that
  /// fits its page) that hits the cache allocates nothing. The decode is
  /// deterministic (fixed-width doubles), so hits, distances and every
  /// KnnResult counter are bit-identical to the in-RAM mode — only
  /// residency and page reads change. Centroids, keys, and covering radii
  /// always stay in RAM (they are what makes pruning cheap).
  /// Copies of the index (COW snapshot generations) share the store; Remove
  /// drops leaf entries without reclaiming their records, since older
  /// generations may still reference them (space returns when the store is
  /// rebuilt at the next engine open). Store errors on the query path
  /// surface as std::runtime_error, matching the index's existing throwing
  /// contract.
  storage::PagedRecordStore* paged_store = nullptr;
};

/// One answer of a k-NN search.
struct KnnHit {
  size_t og_id = 0;   ///< caller-supplied OG identifier ("pointer to clip")
  double distance = 0.0;
};

/// k-NN result plus the cost counters the paper reports (Figure 7b).
/// All three are counted in a per-query local context — NOT as a delta of
/// the global atomic — so concurrent queries over one shared index snapshot
/// report exact, non-interfering values.
struct KnnResult {
  std::vector<KnnHit> hits;             ///< ascending by distance
  /// EGED DP evaluations this query ran (full or early-abandoned) — the
  /// "distance computations" of Figure 7b.
  size_t distance_computations = 0;
  /// Candidates eliminated by the O(m+n) lower-bound cascade before any DP.
  size_t lb_prunes = 0;
  /// DPs truncated once a whole row exceeded the pruning radius tau.
  size_t early_abandons = 0;
};

/// STRG-Index (Section 5): a three-level tree.
///
///   root node     — one record per background graph (BG), each pointing to
///   cluster node  — one record per OG cluster: the synthesized centroid OG
///                   and a pointer to
///   leaf node     — member OGs keyed by EGED_M(OG_mem, OG_clus), sorted.
///
/// Keys live in the metric EGED space (Theorem 2), so the triangle
/// inequality |key(q) - key(e)| <= EGED_M(q, e) prunes leaf entries, and
/// cluster covering radii prune whole subtrees. Clusters are produced by
/// EM with the non-metric EGED (Section 4), which is what makes the
/// partitioning tighter than the M-tree's split-based partitioning.
class StrgIndex {
 public:
  explicit StrgIndex(StrgIndexParams params = {});

  /// Copyable so a serving layer can snapshot the index (copy-on-write
  /// generations). Root and cluster records are immutable once published
  /// and held by shared_ptr, so a copy shares every record and costs one
  /// pointer per root; the mutators path-copy what they change (see
  /// roots_). Counters (distance count, clustering stats) carry over.
  StrgIndex(const StrgIndex&) = default;
  StrgIndex& operator=(const StrgIndex&) = default;
  StrgIndex(StrgIndex&&) noexcept = default;
  StrgIndex& operator=(StrgIndex&&) noexcept = default;

  /// Builds one index segment per Algorithm 2: stores the BG in the root
  /// node, clusters the OG sequences, fills cluster + leaf nodes. `og_ids`
  /// are the caller's identifiers (indices into its OG store); when empty,
  /// 0..n-1 is used. Returns the root record id.
  int AddSegment(core::BackgroundGraph bg,
                 std::vector<dist::Sequence> og_sequences,
                 std::vector<size_t> og_ids = {});

  /// Inserts one OG into an existing segment (nearest cluster; may trigger
  /// the Section 5.3 leaf split).
  void Insert(int root_id, dist::Sequence og_sequence, size_t og_id);

  /// Removes every leaf entry carrying `og_id` (the video clip was deleted).
  /// Covering radii shrink accordingly; empty clusters are dropped.
  /// Returns the number of entries removed.
  size_t Remove(size_t og_id);

  /// k-NN search (Algorithm 3). When `query_bg` is given, only the best
  /// matching root record is searched; otherwise all cluster nodes are
  /// visited (the paper's "query does not consider a background" case).
  ///
  /// `max_distance_computations` (0 = unlimited) caps this query's own DP
  /// evaluations (counted locally, so concurrent queries cannot consume
  /// each other's budget): once the budget is exhausted the current best
  /// candidates are returned. This
  /// cost-bounded mode is how Figure 7(c) compares retrieval accuracy — an
  /// exact k-NN would return identical answers from any correct index, so
  /// accuracy differences only show up at a fixed search budget, where a
  /// better-organized index reaches the true neighbors sooner.
  ///
  /// `initial_tau` (default +inf = unbounded) seeds the worst-of-heap
  /// pruning radius before any hit is found: candidates at distance
  /// >= initial_tau are never reported and are pruned exactly as if the
  /// heap already held k hits at that distance. This is the scatter-gather
  /// hook — a sharded search passes the running global worst-of-k from
  /// already-completed shards so later shard legs skip the work of proving
  /// what the gatherer already knows. Hits below initial_tau are exact and
  /// bit-identical to the unbounded search's (the bounded kernel is exact
  /// below tau); the caller must only pass a finite tau it can prove is an
  /// upper bound on the k-th global neighbor.
  KnnResult Knn(const dist::Sequence& query, size_t k,
                const core::BackgroundGraph* query_bg = nullptr,
                size_t max_distance_computations = 0,
                double initial_tau =
                    std::numeric_limits<double>::infinity()) const;

  /// Range (similarity) search: every indexed OG within `radius` of the
  /// query under the metric EGED, ascending by distance. Uses the same
  /// leaf-key band pruning as Knn: only entries with
  /// |key(e) - key(q)| <= radius can qualify.
  KnnResult RangeSearch(const dist::Sequence& query, double radius,
                        const core::BackgroundGraph* query_bg = nullptr) const;

  /// Total distance computations since construction (build + queries).
  /// Atomic (relaxed) so concurrent readers sharing one published index
  /// snapshot race-freely account their work — the counter is the only
  /// state the const query path (Knn / RangeSearch) touches. Queries count
  /// into a per-query local context and add their total here once at the
  /// end, so KnnResult::distance_computations is exact even under
  /// concurrent load and this aggregate stays monotone.
  size_t TotalDistanceComputations() const {
    return distance_count_.value.load(std::memory_order_relaxed);
  }
  void ResetDistanceCount() {
    distance_count_.value.store(0, std::memory_order_relaxed);
  }

  /// Index footprint per Equation 10: member OGs + centroid OGs + BGs,
  /// plus per-record key/pointer overhead.
  size_t SizeBytes() const;

  size_t NumSegments() const { return roots_.size(); }
  size_t NumClusters() const;
  size_t NumIndexedOgs() const;

  /// Keys of one cluster's leaf (ascending), for tests/inspection.
  std::vector<double> LeafKeys(int root_id, size_t cluster_pos) const;

  /// Structural health snapshot, for monitoring and the CLI's info view.
  struct Stats {
    size_t segments = 0;
    size_t clusters = 0;
    size_t ogs = 0;
    size_t min_leaf = 0;        ///< smallest leaf occupancy
    size_t max_leaf = 0;        ///< largest leaf occupancy
    double mean_leaf = 0.0;
    double mean_covering_radius = 0.0;
    double max_covering_radius = 0.0;
    /// Build-side clustering cost, accumulated across every AddSegment EM
    /// fit and split-key re-clustering (MaybeSplit); the bounded-assignment
    /// counters show what triangle-inequality pruning saved on this index.
    cluster::ClusterStats clustering;
  };
  Stats ComputeStats() const;

 private:
  /// Leaf entry with no paged record (its sequence is resident in RAM).
  static constexpr uint64_t kNoLeafRecord = ~0ull;

  struct LeafEntry {
    double key = 0.0;            ///< EGED_M(member, cluster centroid)
    size_t og_id = 0;            ///< "pointer" to the real video clip
    dist::Sequence sequence;     ///< the actual OG (kept in the leaf)
    /// Flat SoA form + precomputed gap costs of `sequence` against the
    /// index's metric gap — built once at insert, consumed by every query
    /// the entry is ever a candidate for. Travels with the entry across
    /// splits (it depends only on the sequence, not on the centroid).
    dist::FlatSequence flat;
    /// Paged mode: the record id of the serialized sequence in
    /// params_.paged_store, and its length (kept resident so SizeBytes and
    /// split bookkeeping need no fetch). sequence/flat above stay empty.
    uint64_t record = kNoLeafRecord;
    uint32_t seq_len = 0;
    /// Paged mode: flat.summary() captured before the flat form is dropped,
    /// so the query path's lower-bound cascade needs no fetch. Immutable and
    /// shared by every index copy holding the entry. Null in RAM mode, where
    /// flat.summary() already holds it.
    std::shared_ptr<const dist::LbSummary> summary;
  };
  struct ClusterRecord {
    int id = 0;
    dist::Sequence centroid;           ///< OG_clus
    dist::FlatSequence centroid_flat;  ///< flat form of the centroid
    double covering_radius = 0.0;      ///< max leaf key
    std::vector<LeafEntry> leaf;       ///< sorted by key
  };
  struct RootRecord {
    int id = 0;
    core::BackgroundGraph bg;
    /// Shared with every index copy that has not rewritten the cluster.
    std::vector<std::shared_ptr<const ClusterRecord>> clusters;
  };

  /// Relaxed atomic counter that copies its value, so the index keeps the
  /// compiler-generated copy and move operations.
  struct Counter {
    std::atomic<size_t> value{0};
    Counter() = default;
    Counter(const Counter& other) noexcept
        : value(other.value.load(std::memory_order_relaxed)) {}
    Counter& operator=(const Counter& other) noexcept {
      value.store(other.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };

  /// Per-query search state: the query's flat form, the distance budget,
  /// and local counters (the fix for the cross-query counter race — nothing
  /// here is shared between concurrent queries). This is the index's whole
  /// concurrency story, so it needs no STRG_GUARDED_BY fields: the const
  /// query path (Knn / RangeSearch) reads an immutable published snapshot,
  /// accumulates into this stack-local ctx, and its only shared write is
  /// one relaxed add to distance_count_ at the end; mutation (AddSegment /
  /// Insert / Remove) happens before publication, under the serving
  /// layer's writer_mu_ clone-mutate-publish protocol.
  struct SearchCtx;

  dist::FlatSequence MakeFlat(const dist::Sequence& seq) const {
    return dist::FlatSequence(seq, params_.metric_gap);
  }

  /// Build-path distance evaluations; both count into the global atomic.
  double Metric(const dist::Sequence& a, const dist::Sequence& b) const;
  double MetricFlat(const dist::FlatSequence& a,
                    const dist::FlatSequence& b) const;
  /// Bounded build-path evaluation (exact when the result is <= tau); only
  /// evaluations that ran the DP count toward the global atomic.
  double MetricFlatBounded(const dist::FlatSequence& a,
                           const dist::FlatSequence& b, double tau) const;

  /// Query-path evaluations: count into ctx, honor use_fast_kernel.
  double SearchMetricLeaf(SearchCtx* ctx, const LeafEntry& entry,
                          double tau) const;
  double SearchMetricCentroid(SearchCtx* ctx, const ClusterRecord& cluster,
                              double tau) const;

  /// Paged-mode helpers (no-ops / trivial when paged_store is unset).
  /// Offload serializes the entry's sequence into the store, keeps its
  /// LbSummary, and drops the resident copies; Fetch decodes it back into
  /// `*out`, reusing its capacity (throwing std::runtime_error on a store
  /// failure, per the class contract). EntryLength works in both modes.
  void OffloadEntry(LeafEntry* entry);
  void FetchSequence(const LeafEntry& entry, dist::Sequence* out) const;
  size_t EntryLength(const LeafEntry& entry) const {
    return entry.record == kNoLeafRecord ? entry.sequence.size()
                                         : entry.seq_len;
  }

  /// Offloads `entry` (paged mode) and inserts it at its key position,
  /// growing the covering radius. `cluster` must be a private copy.
  void InsertEntry(ClusterRecord* cluster, LeafEntry entry);
  /// Section 5.3 split test on `cluster_copy`, the private copy at
  /// root->clusters[cluster_pos] (a split replaces that slot).
  void MaybeSplit(RootRecord* root, size_t cluster_pos,
                  ClusterRecord* cluster_copy);
  void SearchClusters(const RootRecord& root, SearchCtx* ctx, size_t k,
                      KnnResult* result) const;
  size_t BestRoot(const core::BackgroundGraph& query_bg) const;

  StrgIndexParams params_;
  dist::EgedMetricDistance metric_;
  dist::EgedDistance nonmetric_;
  mutable Counter distance_count_;
  /// Clustering cost counters, fed to every EmCluster call the index makes.
  /// Plain (non-atomic) because all writers — AddSegment and the
  /// Insert-driven MaybeSplit — run under the serving layer's single-writer
  /// protocol, and EmCluster itself merges restart-local counters serially
  /// before touching the sink.
  cluster::ClusterStats cluster_stats_;
  /// The tree, shared structurally between index copies (snapshot
  /// generations). A published record is never written again: AddSegment
  /// appends a freshly built root, Insert copies the target root and then
  /// the target cluster before writing them, and Remove copies only the
  /// roots and clusters that hold the id. A write therefore allocates one
  /// root→cluster path, and older copies keep reading the records they
  /// started with.
  std::vector<std::shared_ptr<const RootRecord>> roots_;
  int next_cluster_id_ = 0;
};

/// size(STRG-Index) per Equation 10, computed from a decomposition without
/// building the index — used by the Section 5.4 size analysis tests.
size_t PaperIndexSizeBytes(const core::Decomposition& decomposition,
                           size_t num_clusters);

}  // namespace strg::index

#endif  // STRG_INDEX_STRG_INDEX_H_
