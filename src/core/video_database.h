#ifndef STRG_CORE_VIDEO_DATABASE_H_
#define STRG_CORE_VIDEO_DATABASE_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "api/query_spec.h"
#include "core/pipeline.h"
#include "index/strg_index.h"
#include "storage/catalog.h"

namespace strg::api {

/// High-level content-based video retrieval store: the paper's full system
/// behind one API. Feed it processed video segments (SegmentResult); it
/// maintains the STRG-Index and answers similarity queries over object
/// graphs ("find clips where something moved like this").
class VideoDatabase {
 public:
  explicit VideoDatabase(index::StrgIndexParams params = {});

  /// Rebuild-from-catalog: re-registers every stored segment. The index
  /// build is deterministic for fixed parameters, so this reproduces the
  /// pre-shutdown database — the constructor crash recovery replays
  /// snapshots through.
  explicit VideoDatabase(const storage::Catalog& catalog,
                         index::StrgIndexParams params = {});

  /// Snapshot hook for the serving layer (`server::QueryEngine`):
  /// copy-on-write generations are built by cloning the current database,
  /// mutating the clone, and atomically publishing it. The clone shares
  /// every index record and every full record chunk with the original, so
  /// it costs O(#roots + #OGs / kRecordChunk) pointer copies; the mutators
  /// then copy only what they change. The query methods below are const and
  /// touch no mutable state besides the index's atomic distance counter, so
  /// any number of threads may query one published (immutable) clone
  /// concurrently without locks.
  VideoDatabase Clone() const { return *this; }

  /// Registers a processed video segment under a name: its BG becomes a
  /// root record, its OGs are clustered and indexed (Algorithm 2). Returns
  /// the root/segment id.
  int AddVideo(const std::string& name, const SegmentResult& segment);

  /// Inserts one more OG into an existing video's segment.
  void AddObjectGraph(int segment_id, const std::string& video_name,
                      const core::Og& og, const dist::FeatureScaling& scaling);

  /// One retrieval answer, resolved back to the source video.
  struct QueryHit {
    std::string video;
    size_t og_id = 0;        ///< global OG id inside the database
    int start_frame = 0;     ///< where the matching OG begins
    size_t length = 0;       ///< OG duration in frames
    double distance = 0.0;   ///< EGED_M to the query
  };

  /// Per-query cost counters (the paper's Figure 7b metric plus the fast
  /// kernel's pruning breakdown). Counted locally per query — exact under
  /// concurrent load; zero for kActive queries, which compute no distances.
  struct QueryStats {
    size_t distance_computations = 0;  ///< EGED DP evaluations
    size_t lb_prunes = 0;              ///< answered by the O(m+n) cascade
    size_t early_abandons = 0;         ///< DPs truncated by the tau radius
  };

  /// The one retrieval entry point: dispatches on spec.kind (k-NN /
  /// range / temporal window). Every layer above — the serving engine, the
  /// cache digest, the tools — speaks QuerySpec; the Find* methods below
  /// are legacy spellings of the same calls. When `stats` is non-null the
  /// query's cost counters are written there.
  ///
  /// `initial_tau` (kSimilar only; default +inf = unbounded) seeds the kNN
  /// worst-of-heap pruning radius — the scatter-gather hook a sharded
  /// serving layer uses to hand a shard leg the running global worst-of-k
  /// from already-completed shards (see index::StrgIndex::Knn for the
  /// exactness contract). Range and active queries ignore it.
  std::vector<QueryHit> Query(
      const QuerySpec& spec, QueryStats* stats = nullptr,
      double initial_tau = std::numeric_limits<double>::infinity()) const;

  /// The submit/complete surface at the database layer — the degenerate
  /// synchronous implementation of the API the serving engines
  /// (server::QueryEngine / ShardedQueryEngine) expose. There is no queue
  /// and no worker pool here, so the request executes inline on the
  /// calling thread and `on_complete` (when given) fires with the answer
  /// before Submit returns; the answer is also returned directly.
  /// opts.timeout / use_cache / shard_hint are accepted for vocabulary
  /// uniformity and ignored — a bare database has no admission control, no
  /// cache, and no shards.
  std::vector<QueryHit> Submit(
      const QuerySpec& spec, const SubmitOptions& opts,
      const std::function<void(const std::vector<QueryHit>&)>& on_complete =
          nullptr,
      QueryStats* stats = nullptr) const;

  // ---- Legacy entry points: one-line wrappers over Query(QuerySpec),
  // ---- kept for source compatibility and slated for eventual removal.

  /// k-NN with the query given as an OG, converted with `scaling` (use the
  /// producing segment's Scaling()).
  std::vector<QueryHit> FindSimilar(const core::Og& query, size_t k,
                                    const dist::FeatureScaling& scaling) const;
  std::vector<QueryHit> FindSimilar(const dist::Sequence& query,
                                    size_t k) const {
    return Query(QuerySpec::Similar(query, k));
  }
  std::vector<QueryHit> FindWithinRadius(const dist::Sequence& query,
                                         double radius) const {
    return Query(QuerySpec::WithinRadius(query, radius));
  }
  std::vector<QueryHit> FindActive(const std::string& video, int first_frame,
                                   int last_frame) const {
    return Query(QuerySpec::Active(video, first_frame, last_frame));
  }

  size_t NumVideos() const { return num_videos_; }
  size_t NumObjectGraphs() const { return num_records_; }
  size_t IndexSizeBytes() const { return index_.SizeBytes(); }
  size_t DistanceComputations() const {
    return index_.TotalDistanceComputations();
  }

  const index::StrgIndex& index() const { return index_; }
  index::StrgIndex& index() { return index_; }

 private:
  struct OgRecord {
    std::string video;
    int start_frame = 0;
    size_t length = 0;
  };

  /// Records per chunk. Full chunks are immutable and shared between
  /// clones; an append copies at most this many records (the tail chunk).
  static constexpr size_t kRecordChunk = 64;
  using RecordChunk = std::vector<OgRecord>;

  const OgRecord& Record(size_t og_id) const {
    return (*record_chunks_[og_id / kRecordChunk])[og_id % kRecordChunk];
  }
  /// Appends records for the next OG ids, starting at NumObjectGraphs().
  void AppendRecords(std::vector<OgRecord> records);

  std::vector<QueryHit> Resolve(const index::KnnResult& knn) const;

  index::StrgIndex index_;
  /// OG id -> source video and frames, path-copied like the index.
  std::vector<std::shared_ptr<const RecordChunk>> record_chunks_;
  size_t num_records_ = 0;
  size_t num_videos_ = 0;
};

}  // namespace strg::api

#endif  // STRG_CORE_VIDEO_DATABASE_H_
