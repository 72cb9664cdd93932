// ctest-labels: unit
#include <gtest/gtest.h>

#include "core/video_database.h"
#include "video/scenes.h"

namespace strg::api {
namespace {

PipelineParams FastPipeline() {
  PipelineParams p;
  p.segmenter.use_mean_shift = false;
  return p;
}

SegmentResult ProcessLab(int num_objects, uint64_t seed) {
  video::SceneParams sp;
  sp.num_objects = num_objects;
  sp.object_lifetime = 16;
  sp.spawn_gap = 20;
  sp.noise_stddev = 0.0;
  sp.seed = seed;
  return ProcessScene(video::MakeLabScene(sp), FastPipeline());
}

index::StrgIndexParams SmallIndex() {
  index::StrgIndexParams p;
  p.num_clusters = 2;
  p.cluster_params.max_iterations = 6;
  return p;
}

TEST(VideoDatabaseQueries, FindWithinRadiusReturnsSelfAtZero) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab = ProcessLab(4, 7);
  db.AddVideo("lab", lab);
  auto seq = dist::OgToSequence(lab.decomposition.object_graphs[1],
                                lab.Scaling());
  auto hits = db.Query(QuerySpec::WithinRadius(seq, 1e-9));
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].video, "lab");
  EXPECT_NEAR(hits[0].distance, 0.0, 1e-9);
}

TEST(VideoDatabaseQueries, RadiusGrowsResultSet) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab = ProcessLab(5, 7);
  db.AddVideo("lab", lab);
  auto seq = dist::OgToSequence(lab.decomposition.object_graphs[0],
                                lab.Scaling());
  auto small = db.Query(QuerySpec::WithinRadius(seq, 1.0));
  auto large = db.Query(QuerySpec::WithinRadius(seq, 1e9));
  EXPECT_LE(small.size(), large.size());
  EXPECT_EQ(large.size(), db.NumObjectGraphs());
}

TEST(VideoDatabaseQueries, FindActiveIntersectsLifetimes) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab = ProcessLab(5, 7);  // objects start at 0,20,40,60,80
  db.AddVideo("lab", lab);

  // A window covering only the second object's lifetime.
  auto hits = db.Query(QuerySpec::Active("lab", 22, 30));
  ASSERT_GE(hits.size(), 1u);
  for (const auto& h : hits) {
    int end = h.start_frame + static_cast<int>(h.length) - 1;
    EXPECT_LE(h.start_frame, 30);
    EXPECT_GE(end, 22);
  }

  // A window before anything moves.
  EXPECT_TRUE(db.Query(QuerySpec::Active("lab", -10, -1)).empty());
  // Unknown video name.
  EXPECT_TRUE(db.Query(QuerySpec::Active("nope", 0, 100)).empty());
  // An inverted window is empty, even where both ends lie inside one OG.
  EXPECT_TRUE(db.Query(QuerySpec::Active("lab", 30, 22)).empty());
}

TEST(VideoDatabaseQueries, FindActiveFiltersByVideo) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab1 = ProcessLab(3, 7);
  SegmentResult lab2 = ProcessLab(3, 9);
  db.AddVideo("a", lab1);
  db.AddVideo("b", lab2);
  auto hits = db.Query(QuerySpec::Active("b", 0, 10000));
  EXPECT_EQ(hits.size(), lab2.decomposition.object_graphs.size());
  for (const auto& h : hits) EXPECT_EQ(h.video, "b");
}

}  // namespace
}  // namespace strg::api
