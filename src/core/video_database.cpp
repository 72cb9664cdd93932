#include "core/video_database.h"

#include "core/persistence.h"

namespace strg::api {

VideoDatabase::VideoDatabase(index::StrgIndexParams params)
    : index_(params) {}

VideoDatabase::VideoDatabase(const storage::Catalog& catalog,
                             index::StrgIndexParams params)
    : index_(params) {
  for (const storage::CatalogSegment& s : catalog.segments()) {
    AddVideo(s.video_name, FromCatalogSegment(s));
  }
}

int VideoDatabase::AddVideo(const std::string& name,
                            const SegmentResult& segment) {
  std::vector<dist::Sequence> sequences = segment.ObjectSequences();
  std::vector<size_t> ids;
  std::vector<OgRecord> records;
  ids.reserve(sequences.size());
  records.reserve(sequences.size());
  for (const core::Og& og : segment.decomposition.object_graphs) {
    ids.push_back(num_records_ + records.size());
    records.push_back({name, og.start_frame, og.Length()});
  }
  AppendRecords(std::move(records));
  ++num_videos_;
  return index_.AddSegment(segment.decomposition.background,
                           std::move(sequences), std::move(ids));
}

void VideoDatabase::AddObjectGraph(int segment_id,
                                   const std::string& video_name,
                                   const core::Og& og,
                                   const dist::FeatureScaling& scaling) {
  size_t id = num_records_;
  AppendRecords({{video_name, og.start_frame, og.Length()}});
  index_.Insert(segment_id, dist::OgToSequence(og, scaling), id);
}

void VideoDatabase::AppendRecords(std::vector<OgRecord> records) {
  size_t next = 0;
  while (next < records.size()) {
    auto chunk = std::make_shared<RecordChunk>();
    chunk->reserve(kRecordChunk);
    if (num_records_ % kRecordChunk != 0) {
      // The partial tail chunk may be shared with a clone: refill a copy.
      const RecordChunk& tail = *record_chunks_.back();
      chunk->insert(chunk->end(), tail.begin(), tail.end());
      record_chunks_.pop_back();
    }
    while (next < records.size() && chunk->size() < kRecordChunk) {
      chunk->push_back(std::move(records[next++]));
      ++num_records_;
    }
    record_chunks_.push_back(std::move(chunk));
  }
}

std::vector<VideoDatabase::QueryHit> VideoDatabase::Query(
    const QuerySpec& spec, QueryStats* stats, double initial_tau) const {
  auto with_stats = [&](const index::KnnResult& knn) {
    if (stats != nullptr) {
      stats->distance_computations = knn.distance_computations;
      stats->lb_prunes = knn.lb_prunes;
      stats->early_abandons = knn.early_abandons;
    }
    return Resolve(knn);
  };
  switch (spec.kind) {
    case QuerySpec::Kind::kSimilar:
      return with_stats(index_.Knn(spec.sequence, spec.k,
                                   /*query_bg=*/nullptr,
                                   /*max_distance_computations=*/0,
                                   initial_tau));
    case QuerySpec::Kind::kRange:
      return with_stats(index_.RangeSearch(spec.sequence, spec.radius));
    case QuerySpec::Kind::kActive: {
      std::vector<QueryHit> hits;
      if (spec.first_frame > spec.last_frame) return hits;
      for (size_t id = 0; id < num_records_; ++id) {
        const OgRecord& rec = Record(id);
        if (rec.video != spec.video) continue;
        int end = rec.start_frame + static_cast<int>(rec.length) - 1;
        if (end < spec.first_frame || rec.start_frame > spec.last_frame) {
          continue;
        }
        hits.push_back({rec.video, id, rec.start_frame, rec.length, 0.0});
      }
      return hits;
    }
  }
  return {};
}

std::vector<VideoDatabase::QueryHit> VideoDatabase::Resolve(
    const index::KnnResult& knn) const {
  std::vector<QueryHit> hits;
  hits.reserve(knn.hits.size());
  for (const index::KnnHit& h : knn.hits) {
    const OgRecord& rec = Record(h.og_id);
    hits.push_back({rec.video, h.og_id, rec.start_frame, rec.length,
                    h.distance});
  }
  return hits;
}

}  // namespace strg::api
