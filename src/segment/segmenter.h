#ifndef STRG_SEGMENT_SEGMENTER_H_
#define STRG_SEGMENT_SEGMENTER_H_

#include "segment/mean_shift.h"
#include "segment/region.h"
#include "segment/workspace.h"
#include "video/frame.h"

namespace strg::segment {

/// Configuration of the region segmentation pipeline.
struct SegmenterParams {
  /// Run the mean-shift color filter before labeling. Turning it off gives
  /// a fast path for long low-noise synthetic streams (the filter is by far
  /// the most expensive stage); tests cover both paths.
  bool use_mean_shift = true;
  MeanShiftParams mean_shift;

  /// Max color distance between 4-neighbors inside one region.
  double color_tolerance = 20.0;

  /// Regions smaller than this are merged into their most similar neighbor
  /// (cleans up anti-aliased edges and residual speckle).
  int min_region_size = 6;

  /// Merge rounds for the small-region cleanup.
  int merge_rounds = 3;
};

/// Segments one frame into homogeneous color regions, reusing `workspace`
/// scratch and `out`'s buffers. After warm-up on a fixed geometry this
/// performs no heap allocations (bench_ingest asserts it). Results are
/// identical to SegmentFrame's for any workspace state.
///
/// Pipeline: (optional) mean-shift filtering -> 4-connected component
/// labeling by color tolerance -> small-region merging -> region statistics
/// and adjacency extraction. The output feeds RAG construction
/// (Definition 1 in the paper).
void SegmentFrameInto(const video::Frame& frame, const SegmenterParams& params,
                      SegmenterWorkspace* workspace, Segmentation* out);

/// Segments one frame, allocating a transient workspace.
Segmentation SegmentFrame(const video::Frame& frame,
                          const SegmenterParams& params);

/// Segments one frame reusing a caller-owned workspace.
Segmentation SegmentFrame(const video::Frame& frame,
                          const SegmenterParams& params,
                          SegmenterWorkspace* workspace);

}  // namespace strg::segment

#endif  // STRG_SEGMENT_SEGMENTER_H_
