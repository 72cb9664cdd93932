#include "core/persistence.h"

namespace strg::api {

storage::CatalogSegment ToCatalogSegment(const std::string& video_name,
                                         const SegmentResult& segment) {
  storage::CatalogSegment out;
  out.video_name = video_name;
  out.frame_width = segment.frame_width;
  out.frame_height = segment.frame_height;
  out.num_frames = segment.num_frames;
  out.background = segment.decomposition.background;
  out.ogs = segment.decomposition.object_graphs;
  return out;
}

SegmentResult FromCatalogSegment(const storage::CatalogSegment& segment) {
  SegmentResult out;
  out.num_frames = segment.num_frames;
  out.frame_width = segment.frame_width;
  out.frame_height = segment.frame_height;
  out.decomposition.background = segment.background;
  out.decomposition.object_graphs = segment.ogs;
  return out;
}

}  // namespace strg::api
