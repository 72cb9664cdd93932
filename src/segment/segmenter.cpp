#include "segment/segmenter.h"

#include <algorithm>
#include <limits>

#include "segment/connected_components.h"

namespace strg::segment {

namespace {

void ComputeStats(const video::Frame& frame, const std::vector<int>& labels,
                  int num_labels, std::vector<RegionAccum>* acc) {
  RegionAccum init;
  init.min_x = std::numeric_limits<int>::max();
  init.max_x = std::numeric_limits<int>::min();
  init.min_y = std::numeric_limits<int>::max();
  init.max_y = std::numeric_limits<int>::min();
  acc->assign(static_cast<size_t>(num_labels), init);
  const int w = frame.width(), h = frame.height();
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int l = labels[static_cast<size_t>(y) * w + x];
      RegionAccum& a = (*acc)[static_cast<size_t>(l)];
      const video::Rgb& p = frame.At(x, y);
      a.size += 1;
      a.r += p.r;
      a.g += p.g;
      a.b += p.b;
      a.sx += x;
      a.sy += y;
      a.min_x = std::min(a.min_x, x);
      a.max_x = std::max(a.max_x, x);
      a.min_y = std::min(a.min_y, y);
      a.max_y = std::max(a.max_y, y);
    }
  }
}

video::Rgb MeanColor(const RegionAccum& a) {
  double n = static_cast<double>(a.size);
  return video::Rgb{video::ClampByte(a.r / n), video::ClampByte(a.g / n),
                    video::ClampByte(a.b / n)};
}

/// Sorted unique adjacency pairs (min, max) of 4-neighboring labels —
/// the same sequence the seed's std::set produced, built allocation-free
/// into reused scratch.
void CollectAdjacentPairs(const std::vector<int>& labels, int w, int h,
                          std::vector<std::pair<int, int>>* pairs) {
  pairs->clear();
  auto add = [&](int a, int b) {
    if (a == b) return;
    pairs->emplace_back(std::min(a, b), std::max(a, b));
  };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int l = labels[static_cast<size_t>(y) * w + x];
      if (x + 1 < w) add(l, labels[static_cast<size_t>(y) * w + x + 1]);
      if (y + 1 < h) add(l, labels[static_cast<size_t>(y + 1) * w + x]);
    }
  }
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

/// Builds the neighbor lists of each label as a CSR over the sorted pair
/// list. Per-node neighbor order equals the seed's push order (pairs are
/// consumed in the same sorted sequence).
void BuildNeighborCsr(const std::vector<std::pair<int, int>>& pairs,
                      int num_labels, SegmenterWorkspace* ws) {
  ws->csr_offsets.assign(static_cast<size_t>(num_labels) + 1, 0);
  for (const auto& [a, b] : pairs) {
    ++ws->csr_offsets[static_cast<size_t>(a) + 1];
    ++ws->csr_offsets[static_cast<size_t>(b) + 1];
  }
  for (int l = 0; l < num_labels; ++l) {
    ws->csr_offsets[static_cast<size_t>(l) + 1] +=
        ws->csr_offsets[static_cast<size_t>(l)];
  }
  ws->csr_neighbors.resize(
      static_cast<size_t>(ws->csr_offsets[static_cast<size_t>(num_labels)]));
  ws->csr_cursor.assign(ws->csr_offsets.begin(),
                        ws->csr_offsets.end() - 1);
  for (const auto& [a, b] : pairs) {
    ws->csr_neighbors[static_cast<size_t>(ws->csr_cursor[static_cast<size_t>(a)]++)] = b;
    ws->csr_neighbors[static_cast<size_t>(ws->csr_cursor[static_cast<size_t>(b)]++)] = a;
  }
}

}  // namespace

void SegmentFrameInto(const video::Frame& input, const SegmenterParams& params,
                      SegmenterWorkspace* ws, Segmentation* out) {
  const video::Frame* frame = &input;
  if (params.use_mean_shift) {
    MeanShiftFilter(input, params.mean_shift, &ws->mean_shift, &ws->filtered);
    frame = &ws->filtered;
  }
  const int w = frame->width(), h = frame->height();

  int num_labels = 0;
  std::vector<int>& labels = out->labels;
  LabelConnectedComponentsInto(*frame, params.color_tolerance, &ws->cc_parent,
                               &ws->cc_root_label, &labels, &num_labels);

  // Small-region cleanup: fold every undersized region into its most
  // color-similar neighbor; a few rounds handle chains of tiny fragments.
  for (int round = 0; round < params.merge_rounds; ++round) {
    ComputeStats(*frame, labels, num_labels, &ws->acc);
    CollectAdjacentPairs(labels, w, h, &ws->pairs);
    BuildNeighborCsr(ws->pairs, num_labels, ws);

    std::vector<int>& remap = ws->remap;
    remap.resize(static_cast<size_t>(num_labels));
    bool changed = false;
    for (int l = 0; l < num_labels; ++l) {
      remap[static_cast<size_t>(l)] = l;
      if (ws->acc[static_cast<size_t>(l)].size >= params.min_region_size) {
        continue;
      }
      double best = std::numeric_limits<double>::max();
      int best_n = -1;
      video::Rgb my_color = MeanColor(ws->acc[static_cast<size_t>(l)]);
      const int* nb_begin =
          ws->csr_neighbors.data() + ws->csr_offsets[static_cast<size_t>(l)];
      const int* nb_end = ws->csr_neighbors.data() +
                          ws->csr_offsets[static_cast<size_t>(l) + 1];
      for (const int* it = nb_begin; it != nb_end; ++it) {
        int nb = *it;
        // Prefer merging into stable (large) neighbors.
        if (ws->acc[static_cast<size_t>(nb)].size <
            ws->acc[static_cast<size_t>(l)].size) {
          continue;
        }
        double d = video::ColorDistance(
            my_color, MeanColor(ws->acc[static_cast<size_t>(nb)]));
        if (d < best) {
          best = d;
          best_n = nb;
        }
      }
      if (best_n >= 0) {
        remap[static_cast<size_t>(l)] = best_n;
        changed = true;
      }
    }
    if (!changed) break;
    // Resolve chains (a->b->c) before applying.
    for (int l = 0; l < num_labels; ++l) {
      int t = l;
      for (int hops = 0; hops < num_labels && remap[static_cast<size_t>(t)] != t;
           ++hops) {
        t = remap[static_cast<size_t>(t)];
      }
      remap[static_cast<size_t>(l)] = t;
    }
    for (int& l : labels) l = remap[static_cast<size_t>(l)];
  }

  // Densify labels.
  std::vector<int>& dense = ws->dense;
  dense.assign(static_cast<size_t>(num_labels), -1);
  int next = 0;
  for (int& l : labels) {
    if (dense[static_cast<size_t>(l)] < 0) dense[static_cast<size_t>(l)] = next++;
    l = dense[static_cast<size_t>(l)];
  }

  out->width = w;
  out->height = h;

  ComputeStats(*frame, labels, next, &ws->acc);
  out->regions.resize(static_cast<size_t>(next));
  for (int l = 0; l < next; ++l) {
    const RegionAccum& a = ws->acc[static_cast<size_t>(l)];
    Region& r = out->regions[static_cast<size_t>(l)];
    r.id = l;
    r.size = static_cast<int>(a.size);
    r.mean_color = MeanColor(a);
    r.centroid_x = a.sx / static_cast<double>(a.size);
    r.centroid_y = a.sy / static_cast<double>(a.size);
    r.min_x = a.min_x;
    r.max_x = a.max_x;
    r.min_y = a.min_y;
    r.max_y = a.max_y;
  }

  CollectAdjacentPairs(labels, w, h, &ws->pairs);
  out->adjacency.assign(ws->pairs.begin(), ws->pairs.end());
}

Segmentation SegmentFrame(const video::Frame& frame,
                          const SegmenterParams& params) {
  SegmenterWorkspace workspace;
  Segmentation out;
  SegmentFrameInto(frame, params, &workspace, &out);
  return out;
}

Segmentation SegmentFrame(const video::Frame& frame,
                          const SegmenterParams& params,
                          SegmenterWorkspace* workspace) {
  Segmentation out;
  SegmentFrameInto(frame, params, workspace, &out);
  return out;
}

}  // namespace strg::segment
