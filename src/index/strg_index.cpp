#include "index/strg_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <type_traits>

#include "cluster/bic.h"
#include "cluster/em.h"
#include "storage/pager/paged_record_store.h"
#include "storage/serializer.h"
#include "util/hungarian.h"

namespace strg::index {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Similarity in [0, 1] between two background graphs: optimal node
/// matching (Hungarian on attribute distances thresholded by tolerance)
/// normalized by the smaller node count — the root-level analogue of
/// SimGraph used by Algorithm 3's step 2.
double BackgroundSimilarity(const core::BackgroundGraph& a,
                            const core::BackgroundGraph& b,
                            const graph::AttrTolerance& tol) {
  size_t na = a.rag.NumNodes(), nb = b.rag.NumNodes();
  if (na == 0 || nb == 0) return na == nb ? 1.0 : 0.0;
  std::vector<std::vector<double>> cost(na, std::vector<double>(nb, 1.0));
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      if (graph::NodesCompatible(a.rag.node(static_cast<int>(i)),
                                 b.rag.node(static_cast<int>(j)), tol)) {
        cost[i][j] = 0.0;
      }
    }
  }
  std::vector<int> match = SolveAssignment(cost);
  size_t matched = 0;
  for (size_t i = 0; i < na; ++i) {
    if (match[i] >= 0 && cost[i][static_cast<size_t>(match[i])] == 0.0) {
      ++matched;
    }
  }
  return static_cast<double>(matched) /
         static_cast<double>(std::min(na, nb));
}

size_t SequenceBytes(size_t length) {
  if (length == 0) return 0;
  return length * core::kNodeBytes + (length - 1) * core::kTemporalEdgeBytes;
}

constexpr size_t kKeyBytes = sizeof(double);
constexpr size_t kPtrBytes = sizeof(void*);
constexpr size_t kIdBytes = sizeof(int);

/// Path-copy step: replaces the shared record in `slot` with a private copy
/// and returns it for writing. Index copies that still hold the original
/// never see the write.
template <typename Record>
Record* CopyForWrite(std::shared_ptr<const Record>* slot) {
  auto copy = std::make_shared<Record>(**slot);
  Record* raw = copy.get();
  *slot = std::move(copy);
  return raw;
}

/// Per-thread decode targets for paged fetches on the query path (the
/// `static thread_local FlatSequence` idiom of dtw.cpp / edr.cpp). A
/// fetched candidate is decoded into `seq` and re-flattened into `flat` (or
/// into a slot of `band` for a range query's batch), all reused through
/// FlatSequence::Assign, so once a thread has seen its longest sequence
/// and widest band a fetch allocates nothing. `band` never shrinks, which
/// keeps the candidate pointers into it stable while a batch is built.
struct FetchScratch {
  dist::Sequence seq;
  dist::FlatSequence flat;
  std::vector<dist::FlatSequence> band;
};

FetchScratch& ThreadFetchScratch() {
  static thread_local FetchScratch scratch;
  return scratch;
}

}  // namespace

/// Per-query search state. Counters live here (not in the global atomic)
/// so concurrent queries report exact values; the aggregate atomic receives
/// one fetch_add of `stats.dp_evals` when the query finishes.
struct StrgIndex::SearchCtx {
  dist::FlatSequence query_flat;  ///< the query against the metric gap
  size_t budget = std::numeric_limits<size_t>::max();  ///< max DP evals
  /// Seed pruning radius: the heap's "worst" before it holds k hits.
  /// +inf = unbounded (the single-index behavior); finite = a sharded
  /// caller's running global worst-of-k (see Knn's contract).
  double tau0 = std::numeric_limits<double>::infinity();
  dist::EgedKernelStats stats;

  bool Exhausted() const { return stats.dp_evals >= budget; }
};

static_assert(std::is_nothrow_move_constructible_v<StrgIndex> &&
              std::is_nothrow_move_assignable_v<StrgIndex>);

StrgIndex::StrgIndex(StrgIndexParams params)
    : params_(params), metric_(params.metric_gap) {}

double StrgIndex::MetricFlat(const dist::FlatSequence& a,
                             const dist::FlatSequence& b) const {
  distance_count_.value.fetch_add(1, std::memory_order_relaxed);
  return dist::EgedMetricFlat(a, b, &dist::ThreadLocalEgedWorkspace());
}

double StrgIndex::MetricFlatBounded(const dist::FlatSequence& a,
                                    const dist::FlatSequence& b,
                                    double tau) const {
  dist::EgedKernelStats stats;
  double v = dist::EgedMetricBounded(a, b, tau,
                                     &dist::ThreadLocalEgedWorkspace(),
                                     &stats);
  distance_count_.value.fetch_add(stats.dp_evals,
                                  std::memory_order_relaxed);
  return v;
}

void StrgIndex::OffloadEntry(LeafEntry* entry) {
  if (params_.paged_store == nullptr) return;
  storage::Writer w;
  storage::EncodeSequence(entry->sequence, &w);
  entry->record = params_.paged_store
                      ->Append(storage::kRecIndexNode, w.bytes())
                      .value();  // throws std::runtime_error on store failure
  entry->seq_len = static_cast<uint32_t>(entry->sequence.size());
  entry->summary =
      std::make_shared<const dist::LbSummary>(entry->flat.summary());
  entry->sequence = dist::Sequence();
  entry->flat = dist::FlatSequence();
}

void StrgIndex::FetchSequence(const LeafEntry& entry,
                              dist::Sequence* out) const {
  // .value() throws std::runtime_error on a store failure — the index's
  // documented error contract for the paged query path.
  storage::PagedRecordStore::RecordRef ref =
      params_.paged_store->Read(entry.record).value();
  storage::Reader r(ref.bytes());
  storage::DecodeSequence(&r, out);
}

double StrgIndex::SearchMetricLeaf(SearchCtx* ctx, const LeafEntry& entry,
                                   double tau) const {
  if (entry.record != kNoLeafRecord) {
    // Paged: the resident summary answers the kernel's lower-bound cascade,
    // so a pruned candidate costs no page read. Survivors are fetched,
    // decoded and re-flattened into this thread's reused scratch; the
    // decode is deterministic (fixed-width doubles), so the distance and
    // the counters are bit-identical to the in-RAM entry's.
    double lb = 0.0;
    if (dist::EgedCascadePrunes(ctx->query_flat.summary(), *entry.summary,
                                tau, &lb, &ctx->stats)) {
      return lb;
    }
    FetchScratch& scratch = ThreadFetchScratch();
    FetchSequence(entry, &scratch.seq);
    scratch.flat.Assign(scratch.seq, params_.metric_gap);
    return dist::EgedMetricBounded(ctx->query_flat, scratch.flat, tau,
                                   &dist::ThreadLocalEgedWorkspace(),
                                   &ctx->stats);
  }
  return dist::EgedMetricBounded(ctx->query_flat, entry.flat, tau,
                                 &dist::ThreadLocalEgedWorkspace(),
                                 &ctx->stats);
}

double StrgIndex::SearchMetricCentroid(SearchCtx* ctx,
                                       const ClusterRecord& cluster,
                                       double tau) const {
  return dist::EgedMetricBounded(ctx->query_flat, cluster.centroid_flat, tau,
                                 &dist::ThreadLocalEgedWorkspace(),
                                 &ctx->stats);
}

int StrgIndex::AddSegment(core::BackgroundGraph bg,
                          std::vector<dist::Sequence> og_sequences,
                          std::vector<size_t> og_ids) {
  if (og_ids.empty()) {
    og_ids.resize(og_sequences.size());
    for (size_t i = 0; i < og_ids.size(); ++i) og_ids[i] = i;
  }
  if (og_ids.size() != og_sequences.size()) {
    throw std::invalid_argument("StrgIndex::AddSegment: id count mismatch");
  }

  auto root = std::make_shared<RootRecord>();
  root->id = static_cast<int>(roots_.size());
  root->bg = std::move(bg);

  if (!og_sequences.empty()) {
    // Cluster the OGs with EM + non-metric EGED (Section 4). The E-step
    // keeps exact distances to every component (soft posteriors need the
    // full matrix); the pool — when the caller also wires it into
    // cluster_params — parallelizes the K x M matrix and EM restarts.
    cluster::Clustering model;
    cluster::ClusterParams build_params = params_.cluster_params;
    build_params.stats = &cluster_stats_;
    if (params_.num_clusters > 0) {
      model = cluster::EmCluster(og_sequences,
                                 std::min(params_.num_clusters,
                                          og_sequences.size()),
                                 nonmetric_, build_params);
    } else {
      size_t k_max = std::min(params_.k_max, og_sequences.size());
      size_t k_min = std::min(params_.k_min, k_max);
      auto sweep = cluster::FindOptimalK(og_sequences, k_min, k_max,
                                         nonmetric_, build_params);
      model = std::move(sweep.models[sweep.best_k - k_min]);
    }

    std::vector<ClusterRecord> clusters(model.NumClusters());
    for (size_t c = 0; c < model.NumClusters(); ++c) {
      clusters[c].id = next_cluster_id_++;
      clusters[c].centroid = model.centroids[c];
      clusters[c].centroid_flat = MakeFlat(clusters[c].centroid);
    }

    // Place each OG under the centroid nearest in *metric* EGED — the
    // space its leaf key and the covering radii live in. EM's posterior
    // assignment (non-metric EGED) usually agrees, but when it does not,
    // following it would inflate a cluster's covering radius and weaken
    // the triangle-inequality pruning of Algorithm 3.
    //
    // Each OG is independent (disjoint output slots, atomic distance
    // counter), so the placement fans out over the pool; the EM hint is
    // evaluated exactly first, every other centroid only up to the running
    // best (bounded kernel) — the same argmin, usually without the DP.
    const size_t n = og_sequences.size();
    std::vector<dist::FlatSequence> flats(n);
    std::vector<size_t> best(n, 0);
    std::vector<double> best_key(n, 0.0);
    auto place_one = [&](size_t j) {
      flats[j].Assign(og_sequences[j], params_.metric_gap);
      size_t b = static_cast<size_t>(model.assignment[j]);
      double bk = MetricFlat(flats[j], clusters[b].centroid_flat);
      for (size_t c = 0; c < clusters.size(); ++c) {
        if (c == b) continue;
        double key = MetricFlatBounded(flats[j], clusters[c].centroid_flat,
                                       bk);
        if (key < bk) {
          bk = key;
          b = c;
        }
      }
      best[j] = b;
      best_key[j] = bk;
    };
    if (params_.pool != nullptr && n > 1) {
      params_.pool->ParallelFor(0, n, place_one);
    } else {
      for (size_t j = 0; j < n; ++j) place_one(j);
    }
    for (size_t j = 0; j < n; ++j) {
      LeafEntry entry;
      entry.key = best_key[j];
      entry.og_id = og_ids[j];
      entry.sequence = std::move(og_sequences[j]);
      entry.flat = std::move(flats[j]);
      OffloadEntry(&entry);
      clusters[best[j]].leaf.push_back(std::move(entry));
    }
    // Drop clusters EM left empty, sort leaves by key (Algorithm 2 line 12).
    for (ClusterRecord& cluster : clusters) {
      if (cluster.leaf.empty()) continue;
      std::sort(cluster.leaf.begin(), cluster.leaf.end(),
                [](const LeafEntry& a, const LeafEntry& b) {
                  return a.key < b.key;
                });
      cluster.covering_radius = cluster.leaf.back().key;
      root->clusters.push_back(
          std::make_shared<const ClusterRecord>(std::move(cluster)));
    }
  }

  roots_.push_back(std::move(root));
  return roots_.back()->id;
}

void StrgIndex::InsertEntry(ClusterRecord* cluster, LeafEntry entry) {
  OffloadEntry(&entry);
  auto pos = std::lower_bound(cluster->leaf.begin(), cluster->leaf.end(),
                              entry.key,
                              [](const LeafEntry& e, double k) {
                                return e.key < k;
                              });
  cluster->covering_radius = std::max(cluster->covering_radius, entry.key);
  cluster->leaf.insert(pos, std::move(entry));
}

void StrgIndex::Insert(int root_id, dist::Sequence og_sequence,
                       size_t og_id) {
  if (root_id < 0 || static_cast<size_t>(root_id) >= roots_.size()) {
    throw std::out_of_range("StrgIndex::Insert: bad root id");
  }
  RootRecord* root = CopyForWrite(&roots_[static_cast<size_t>(root_id)]);
  LeafEntry entry;
  entry.og_id = og_id;
  entry.flat = MakeFlat(og_sequence);
  if (root->clusters.empty()) {
    // First OG of the segment becomes its own cluster.
    auto cluster = std::make_shared<ClusterRecord>();
    cluster->id = next_cluster_id_++;
    cluster->centroid = og_sequence;
    cluster->centroid_flat = MakeFlat(cluster->centroid);
    entry.key = MetricFlat(entry.flat, cluster->centroid_flat);
    entry.sequence = std::move(og_sequence);
    InsertEntry(cluster.get(), std::move(entry));
    root->clusters.push_back(std::move(cluster));
    return;
  }
  // Nearest-centroid routing with the running best as tau: identical argmin
  // to the exact scan, but far centroids fall to the lower-bound cascade.
  size_t best = 0;
  double best_d = MetricFlat(entry.flat, root->clusters[0]->centroid_flat);
  for (size_t c = 1; c < root->clusters.size(); ++c) {
    double d = MetricFlatBounded(entry.flat, root->clusters[c]->centroid_flat,
                                 best_d);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  // Reuse the exact routing distance as the leaf key (it is the key).
  entry.key = best_d;
  entry.sequence = std::move(og_sequence);
  ClusterRecord* cluster = CopyForWrite(&root->clusters[best]);
  InsertEntry(cluster, std::move(entry));
  MaybeSplit(root, best, cluster);
}

size_t StrgIndex::Remove(size_t og_id) {
  auto holds_id = [og_id](const LeafEntry& e) { return e.og_id == og_id; };
  auto cluster_holds_id = [&](const std::shared_ptr<const ClusterRecord>& c) {
    return std::any_of(c->leaf.begin(), c->leaf.end(), holds_id);
  };
  size_t removed = 0;
  for (std::shared_ptr<const RootRecord>& slot : roots_) {
    if (std::none_of(slot->clusters.begin(), slot->clusters.end(),
                     cluster_holds_id)) {
      continue;
    }
    RootRecord* root = CopyForWrite(&slot);
    for (std::shared_ptr<const ClusterRecord>& cluster_slot : root->clusters) {
      if (!cluster_holds_id(cluster_slot)) continue;
      ClusterRecord* cluster = CopyForWrite(&cluster_slot);
      removed += std::erase_if(cluster->leaf, holds_id);
      cluster->covering_radius =
          cluster->leaf.empty() ? 0.0 : cluster->leaf.back().key;
    }
    std::erase_if(root->clusters,
                  [](const std::shared_ptr<const ClusterRecord>& c) {
                    return c->leaf.empty();
                  });
  }
  return removed;
}

void StrgIndex::MaybeSplit(RootRecord* root, size_t cluster_pos,
                           ClusterRecord* cluster_copy) {
  ClusterRecord& cluster = *cluster_copy;
  if (cluster.leaf.size() <= params_.leaf_split_threshold) return;

  // Move (not copy) the member sequences out for EM; the leaf entries keep
  // their keys, ids, and flat forms, so the no-split path restores them
  // without recomputing anything. In paged mode the sequences are fetched
  // from the store instead (the entries never held them), and there is
  // nothing to restore — the fetched copies are simply dropped.
  const bool paged = params_.paged_store != nullptr;
  const size_t n = cluster.leaf.size();
  std::vector<dist::Sequence> members(n);
  for (size_t j = 0; j < n; ++j) {
    if (paged) {
      FetchSequence(cluster.leaf[j], &members[j]);
    } else {
      members[j] = std::move(cluster.leaf[j].sequence);
    }
  }
  auto restore_members = [&]() {
    if (paged) return;
    for (size_t j = 0; j < n; ++j) {
      cluster.leaf[j].sequence = std::move(members[j]);
    }
  };

  // Section 5.3: split only when BIC prefers the 2-component model. The
  // split is decided in the *metric* EGED space — the space the leaf keys
  // and covering radii live in — because that is where a split must create
  // tight sub-clusters for pruning to benefit. (The non-metric EGED's
  // replicating gaps let whole sequences delete cheaply, which compresses
  // between-cluster contrast and would mask genuine bimodality.)
  // The split decision runs in metric space, so the bounded assignment path
  // (ClusterParams::use_bounds) engages here; the counters land in
  // cluster_stats_ alongside the AddSegment fits.
  cluster::ClusterParams split_params = params_.cluster_params;
  split_params.stats = &cluster_stats_;
  cluster::Clustering one = cluster::EmCluster(members, 1, metric_, split_params);
  cluster::Clustering two = cluster::EmCluster(members, 2, metric_, split_params);
  double bic1 = cluster::Bic(one.classification_log_likelihood, 1,
                             members.size());
  double bic2 = cluster::Bic(two.classification_log_likelihood, 2,
                             members.size());
  if (bic2 <= bic1 || two.NumClusters() < 2) {
    restore_members();
    return;
  }
  size_t side_a = 0;
  for (int a : two.assignment) side_a += a == 0 ? 1 : 0;
  if (side_a == 0 || side_a == n) {
    // Degenerate split: keep the original cluster as-is. Its centroid is
    // unchanged, so every leaf key is already correct — zero recomputation.
    restore_members();
    return;
  }

  ClusterRecord a, b;
  a.id = next_cluster_id_++;
  b.id = next_cluster_id_++;
  a.centroid = two.centroids[0];
  b.centroid = two.centroids[1];
  a.centroid_flat = MakeFlat(a.centroid);
  b.centroid_flat = MakeFlat(b.centroid);

  // New keys against the (new) target centroids, reusing each member's
  // cached flat form (paged mode re-flattens the fetched sequence instead);
  // independent per member, so the pool fans it out.
  std::vector<double> keys(n, 0.0);
  auto key_one = [&](size_t j) {
    const ClusterRecord& target = two.assignment[j] == 0 ? a : b;
    if (paged) {
      dist::FlatSequence flat(members[j], params_.metric_gap);
      keys[j] = MetricFlat(flat, target.centroid_flat);
    } else {
      keys[j] = MetricFlat(cluster.leaf[j].flat, target.centroid_flat);
    }
  };
  if (params_.pool != nullptr && n > 1) {
    params_.pool->ParallelFor(0, n, key_one);
  } else {
    for (size_t j = 0; j < n; ++j) key_one(j);
  }

  a.leaf.reserve(side_a);
  b.leaf.reserve(n - side_a);
  for (size_t j = 0; j < n; ++j) {
    LeafEntry entry;
    entry.key = keys[j];
    entry.og_id = cluster.leaf[j].og_id;
    if (paged) {
      // The record and its summary travel; the fetched sequence copy is
      // dropped.
      entry.record = cluster.leaf[j].record;
      entry.seq_len = cluster.leaf[j].seq_len;
      entry.summary = std::move(cluster.leaf[j].summary);
    } else {
      entry.sequence = std::move(members[j]);
      entry.flat = std::move(cluster.leaf[j].flat);
    }
    (two.assignment[j] == 0 ? a : b).leaf.push_back(std::move(entry));
  }
  for (ClusterRecord* side : {&a, &b}) {
    std::sort(side->leaf.begin(), side->leaf.end(),
              [](const LeafEntry& x, const LeafEntry& y) {
                return x.key < y.key;
              });
    side->covering_radius = side->leaf.back().key;
  }
  root->clusters[cluster_pos] =
      std::make_shared<const ClusterRecord>(std::move(a));
  root->clusters.push_back(std::make_shared<const ClusterRecord>(std::move(b)));
}

void StrgIndex::SearchClusters(const RootRecord& root, SearchCtx* ctx,
                               size_t k, KnnResult* result) const {
  if (ctx->Exhausted()) return;

  // Per-cluster scan frontier. Leaf entries are sorted by key
  // = EGED_M(member, centroid); with key_q = EGED_M(query, centroid) the
  // triangle inequality gives d(query, e) >= |key(e) - key_q|, so scanning
  // outward from the key_q position visits a cluster's entries in
  // increasing lower-bound order.
  struct Frontier {
    double key_q = 0.0;
    size_t lo = 0;   // next candidate below (exclusive upper index)
    size_t hi = 0;   // next candidate at/above
    bool opened = false;  // centroid evaluated, lo/hi valid
  };

  // Max-heap semantics over the current k best via sorted vector (k small).
  // Until the heap is full the pruning radius is ctx->tau0 (normally +inf;
  // a sharded gatherer seeds it with the global worst-of-k). Once full,
  // hits.back() < tau0 by construction — offer() never admits d >= worst()
  // — so no min() against tau0 is needed.
  auto& hits = result->hits;
  auto worst = [&]() {
    return hits.size() < k ? ctx->tau0 : hits.back().distance;
  };
  auto offer = [&](size_t og_id, double d) {
    if (d >= worst()) return;
    KnnHit hit{og_id, d};
    auto pos = std::lower_bound(hits.begin(), hits.end(), d,
                                [](const KnnHit& h, double v) {
                                  return h.distance < v;
                                });
    hits.insert(pos, hit);
    if (hits.size() > k) hits.pop_back();
  };

  std::vector<Frontier> frontiers(root.clusters.size());
  auto frontier_bound = [&](const Frontier& f, size_t c) {
    const auto& leaf = root.clusters[c]->leaf;
    double lb = kInf;
    if (f.lo > 0) lb = std::min(lb, f.key_q - leaf[f.lo - 1].key);
    if (f.hi < leaf.size()) lb = std::min(lb, leaf[f.hi].key - f.key_q);
    return lb;
  };
  // Opens a cluster: evaluates its centroid (bounded — if even a lower
  // bound on key_q exceeds worst + covering_radius, every member's triangle
  // bound key_q - covering_radius already beats worst and the cluster is
  // dead without an exact key_q) and positions the scan cursors. Returns
  // the first member lower bound, or kInf when the cluster cannot
  // contribute. (worst only shrinks as the scan proceeds, so skips stay
  // valid.)
  auto open_cluster = [&](size_t c) {
    const ClusterRecord& cluster = *root.clusters[c];
    const double tau_c = worst() + cluster.covering_radius;
    double key_q = SearchMetricCentroid(ctx, cluster, tau_c);
    if (key_q > tau_c) return kInf;
    Frontier& f = frontiers[c];
    f.opened = true;
    f.key_q = key_q;
    const auto& leaf = cluster.leaf;
    f.hi = static_cast<size_t>(
        std::lower_bound(leaf.begin(), leaf.end(), f.key_q,
                         [](const LeafEntry& e, double v) {
                           return e.key < v;
                         }) -
        leaf.begin());
    f.lo = f.hi;
    return frontier_bound(f, c);
  };

  // Global best-first scan: always advance the item with the smallest lower
  // bound across ALL clusters, so the worst-of-k radius tightens as fast as
  // possible and whole clusters fall away without being touched.
  using Queued = std::pair<double, size_t>;  // (lower bound, cluster)
  std::priority_queue<Queued, std::vector<Queued>, std::greater<>> queue;

  // Clusters enter the queue unopened, keyed by a member-distance lower
  // bound that needs no DP at all: d(q, e) >= d(q, centroid) - cov >=
  // LB(q, centroid) - cov. The centroid DP is deferred until the cluster
  // reaches the head of the queue — by which point worst is usually tight
  // enough that far clusters are popped, compared, and dropped with zero
  // distance work. The cascade runs as one batched sweep over all centroid
  // flats (query-side terms hoisted).
  const size_t nc = root.clusters.size();
  std::vector<const dist::FlatSequence*> cents(nc);
  std::vector<double> lbs(nc);
  for (size_t c = 0; c < nc; ++c) {
    cents[c] = &root.clusters[c]->centroid_flat;
  }
  dist::EgedLowerBoundBatch(ctx->query_flat, cents.data(), nc, lbs.data());
  for (size_t c = 0; c < nc; ++c) {
    const double lb = lbs[c] - root.clusters[c]->covering_radius;
    queue.push({std::max(lb, 0.0), c});
  }

  while (!queue.empty()) {
    if (ctx->Exhausted()) return;
    auto [lb, c] = queue.top();
    queue.pop();
    if (lb >= worst()) break;  // every remaining entry anywhere is >= lb
    Frontier& f = frontiers[c];
    if (!f.opened) {
      double next = open_cluster(c);
      if (next != kInf) queue.push({next, c});
      continue;
    }
    const auto& leaf = root.clusters[c]->leaf;

    // Evaluate the nearer of the two scan directions, with the current
    // worst-of-k radius as tau: a candidate that cannot make the top k is
    // answered by the lower-bound cascade or an abandoned DP.
    double lb_lo = f.lo > 0 ? f.key_q - leaf[f.lo - 1].key : kInf;
    double lb_hi = f.hi < leaf.size() ? leaf[f.hi].key - f.key_q : kInf;
    if (lb_lo <= lb_hi) {
      --f.lo;
      offer(leaf[f.lo].og_id,
            SearchMetricLeaf(ctx, leaf[f.lo], worst()));
    } else {
      offer(leaf[f.hi].og_id,
            SearchMetricLeaf(ctx, leaf[f.hi], worst()));
      ++f.hi;
    }
    double next = frontier_bound(f, c);
    if (next != kInf) {
      queue.push({next, c});
    }
  }
}

size_t StrgIndex::BestRoot(const core::BackgroundGraph& query_bg) const {
  // Algorithm 3 step 2: route to the best-matching background. The
  // similarity of each root is independent, so large multi-segment indexes
  // fan the Hungarian matchings out over the pool; the argmax reduction
  // stays serial in root order (deterministic, first max wins).
  std::vector<double> sims(roots_.size(), -1.0);
  auto sim_one = [&](size_t r) {
    sims[r] = BackgroundSimilarity(roots_[r]->bg, query_bg,
                                   params_.bg_tolerance);
  };
  if (params_.pool != nullptr && roots_.size() >= 8) {
    params_.pool->ParallelFor(0, roots_.size(), sim_one);
  } else {
    for (size_t r = 0; r < roots_.size(); ++r) sim_one(r);
  }
  size_t best_root = 0;
  double best_sim = -1.0;
  for (size_t r = 0; r < roots_.size(); ++r) {
    if (sims[r] > best_sim) {
      best_sim = sims[r];
      best_root = r;
    }
  }
  return best_root;
}

KnnResult StrgIndex::Knn(const dist::Sequence& query, size_t k,
                         const core::BackgroundGraph* query_bg,
                         size_t max_distance_computations,
                         double initial_tau) const {
  KnnResult result;
  if (k == 0 || roots_.empty()) return result;

  SearchCtx ctx;
  ctx.query_flat.Assign(query, params_.metric_gap);
  if (max_distance_computations != 0) ctx.budget = max_distance_computations;
  ctx.tau0 = initial_tau;

  if (query_bg != nullptr) {
    SearchClusters(*roots_[BestRoot(*query_bg)], &ctx, k, &result);
  } else {
    for (const auto& root : roots_) SearchClusters(*root, &ctx, k, &result);
  }
  result.distance_computations = ctx.stats.dp_evals;
  result.lb_prunes = ctx.stats.lb_prunes;
  result.early_abandons = ctx.stats.early_abandons;
  distance_count_.value.fetch_add(ctx.stats.dp_evals,
                                  std::memory_order_relaxed);
  return result;
}

size_t StrgIndex::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& root : roots_) {
    bytes += kIdBytes + kPtrBytes + root->bg.SizeBytes();
    for (const auto& cluster : root->clusters) {
      bytes += kIdBytes + kPtrBytes + SequenceBytes(cluster->centroid.size());
      for (const LeafEntry& e : cluster->leaf) {
        bytes += kKeyBytes + kPtrBytes + SequenceBytes(EntryLength(e));
      }
    }
  }
  return bytes;
}

KnnResult StrgIndex::RangeSearch(const dist::Sequence& query, double radius,
                                 const core::BackgroundGraph* query_bg) const {
  KnnResult result;
  if (roots_.empty() || radius < 0.0) return result;

  SearchCtx ctx;
  ctx.query_flat.Assign(query, params_.metric_gap);

  // Batch scratch, hoisted so per-cluster bands reuse capacity across the scan.
  // Paged members are flattened into the thread's fetch scratch instead.
  std::vector<const dist::FlatSequence*> cands;
  std::vector<const LeafEntry*> band;
  std::vector<double> taus, dists;
  FetchScratch& scratch = ThreadFetchScratch();

  auto search_root = [&](const RootRecord& root) {
    for (const auto& cluster_ptr : root.clusters) {
      const ClusterRecord& cluster = *cluster_ptr;
      // No member can be within radius when even the closest possible key
      // band misses: d(q, e) >= key_q - covering_radius. The centroid
      // evaluation is bounded by that same test, so hopeless clusters are
      // skipped from a lower bound alone.
      const double tau_c = radius + cluster.covering_radius;
      double key_q = SearchMetricCentroid(&ctx, cluster, tau_c);
      if (key_q - cluster.covering_radius > radius) continue;
      const auto& leaf = cluster.leaf;
      auto lo = std::lower_bound(
          leaf.begin(), leaf.end(), key_q - radius,
          [](const LeafEntry& e, double v) { return e.key < v; });
      // The whole key band goes through the batched bounded kernel in one call
      // (uniform tau = radius). A paged member first meets the kernel's cascade
      // on its resident summary: one it prunes (counted there, exactly as the
      // kernel would) is no hit and is never fetched. The rest are fetched and
      // re-flattened up front into the scratch pool, grown (never shrunk) to
      // the band before any candidate pointer into it is taken.
      band.clear();
      size_t fetches = 0;
      for (auto it = lo; it != leaf.end() && it->key <= key_q + radius;
           ++it) {
        if (it->record != kNoLeafRecord) {
          double lb = 0.0;
          if (dist::EgedCascadePrunes(ctx.query_flat.summary(), *it->summary,
                                      radius, &lb, &ctx.stats)) {
            continue;
          }
          ++fetches;
        }
        band.push_back(&*it);
      }
      if (scratch.band.size() < fetches) scratch.band.resize(fetches);
      cands.clear();
      size_t slot = 0;
      for (const LeafEntry* e : band) {
        if (e->record != kNoLeafRecord) {
          dist::FlatSequence& flat = scratch.band[slot++];
          FetchSequence(*e, &scratch.seq);
          flat.Assign(scratch.seq, params_.metric_gap);
          cands.push_back(&flat);
        } else {
          cands.push_back(&e->flat);
        }
      }
      taus.assign(band.size(), radius);
      dists.resize(band.size());
      dist::EgedBatchBounded(ctx.query_flat, cands.data(), taus.data(),
                             band.size(), dists.data(),
                             &dist::ThreadLocalEgedWorkspace(), &ctx.stats);
      for (size_t i = 0; i < band.size(); ++i) {
        if (dists[i] <= radius) {
          result.hits.push_back({band[i]->og_id, dists[i]});
        }
      }
    }
  };

  if (query_bg != nullptr) {
    search_root(*roots_[BestRoot(*query_bg)]);
  } else {
    for (const auto& root : roots_) search_root(*root);
  }
  std::sort(result.hits.begin(), result.hits.end(),
            [](const KnnHit& a, const KnnHit& b) {
              return a.distance < b.distance;
            });
  result.distance_computations = ctx.stats.dp_evals;
  result.lb_prunes = ctx.stats.lb_prunes;
  result.early_abandons = ctx.stats.early_abandons;
  distance_count_.value.fetch_add(ctx.stats.dp_evals,
                                  std::memory_order_relaxed);
  return result;
}

size_t StrgIndex::NumClusters() const {
  size_t n = 0;
  for (const auto& r : roots_) n += r->clusters.size();
  return n;
}

size_t StrgIndex::NumIndexedOgs() const {
  size_t n = 0;
  for (const auto& r : roots_) {
    for (const auto& c : r->clusters) n += c->leaf.size();
  }
  return n;
}

std::vector<double> StrgIndex::LeafKeys(int root_id,
                                        size_t cluster_pos) const {
  const RootRecord& root = *roots_.at(static_cast<size_t>(root_id));
  const ClusterRecord& cluster = *root.clusters.at(cluster_pos);
  std::vector<double> keys;
  keys.reserve(cluster.leaf.size());
  for (const LeafEntry& e : cluster.leaf) keys.push_back(e.key);
  return keys;
}

StrgIndex::Stats StrgIndex::ComputeStats() const {
  Stats stats;
  stats.segments = roots_.size();
  double radius_acc = 0.0;
  bool first = true;
  for (const auto& root : roots_) {
    for (const auto& cluster : root->clusters) {
      ++stats.clusters;
      stats.ogs += cluster->leaf.size();
      if (first || cluster->leaf.size() < stats.min_leaf) {
        stats.min_leaf = cluster->leaf.size();
      }
      stats.max_leaf = std::max(stats.max_leaf, cluster->leaf.size());
      radius_acc += cluster->covering_radius;
      stats.max_covering_radius =
          std::max(stats.max_covering_radius, cluster->covering_radius);
      first = false;
    }
  }
  if (stats.clusters > 0) {
    stats.mean_leaf =
        static_cast<double>(stats.ogs) / static_cast<double>(stats.clusters);
    stats.mean_covering_radius =
        radius_acc / static_cast<double>(stats.clusters);
  }
  stats.clustering = cluster_stats_;
  return stats;
}

size_t PaperIndexSizeBytes(const core::Decomposition& decomposition,
                           size_t num_clusters) {
  size_t bytes = 0;
  size_t total_len = 0;
  for (const core::Og& og : decomposition.object_graphs) {
    bytes += og.SizeBytes();
    total_len += og.Length();
  }
  // Centroid OGs: estimated at the mean member length (Equation 10's
  // sum_k size(OG_clus_k)).
  if (!decomposition.object_graphs.empty() && num_clusters > 0) {
    size_t mean_len = std::max<size_t>(
        1, total_len / decomposition.object_graphs.size());
    bytes += num_clusters * SequenceBytes(mean_len);
  }
  bytes += decomposition.background.SizeBytes();
  return bytes;
}

}  // namespace strg::index
