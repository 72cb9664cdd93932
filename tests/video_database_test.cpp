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

TEST(VideoDatabase, AddVideoRegistersOgs) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab = ProcessLab(3, 7);
  int seg = db.AddVideo("lab1", lab);
  EXPECT_EQ(seg, 0);
  EXPECT_EQ(db.NumVideos(), 1u);
  EXPECT_EQ(db.NumObjectGraphs(), lab.decomposition.object_graphs.size());
  EXPECT_GT(db.IndexSizeBytes(), 0u);
}

TEST(VideoDatabase, FindSimilarReturnsOwnOg) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab = ProcessLab(3, 7);
  db.AddVideo("lab1", lab);
  const core::Og& probe = lab.decomposition.object_graphs[1];
  auto hits =
      db.Query(QuerySpec::Similar(dist::OgToSequence(probe, lab.Scaling()), 1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].video, "lab1");
  EXPECT_NEAR(hits[0].distance, 0.0, 1e-9);
  EXPECT_EQ(hits[0].start_frame, probe.start_frame);
  EXPECT_EQ(hits[0].length, probe.Length());
}

TEST(VideoDatabase, HitsResolveToCorrectVideos) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab1 = ProcessLab(2, 7);
  SegmentResult lab2 = ProcessLab(2, 99);
  db.AddVideo("lab1", lab1);
  db.AddVideo("lab2", lab2);
  EXPECT_EQ(db.NumVideos(), 2u);

  const core::Og& probe = lab2.decomposition.object_graphs[0];
  auto hits = db.Query(
      QuerySpec::Similar(dist::OgToSequence(probe, lab2.Scaling()), 3));
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].video, "lab2");
  EXPECT_NEAR(hits[0].distance, 0.0, 1e-9);
}

TEST(VideoDatabase, AddObjectGraphExtendsSegment) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab = ProcessLab(2, 7);
  int seg = db.AddVideo("lab1", lab);
  size_t before = db.NumObjectGraphs();

  core::Og extra = lab.decomposition.object_graphs[0];
  extra.start_frame = 500;
  db.AddObjectGraph(seg, "lab1", extra, lab.Scaling());
  EXPECT_EQ(db.NumObjectGraphs(), before + 1);

  auto hits =
      db.Query(QuerySpec::Similar(dist::OgToSequence(extra, lab.Scaling()), 2));
  ASSERT_GE(hits.size(), 2u);
  // Both the original OG and the duplicate should surface at distance ~0.
  EXPECT_NEAR(hits[0].distance, 0.0, 1e-9);
  EXPECT_NEAR(hits[1].distance, 0.0, 1e-9);
}

TEST(VideoDatabase, DistanceComputationsAccumulate) {
  VideoDatabase db(SmallIndex());
  SegmentResult lab = ProcessLab(3, 7);
  db.AddVideo("lab1", lab);
  size_t after_build = db.DistanceComputations();
  db.Query(QuerySpec::Similar(
      dist::OgToSequence(lab.decomposition.object_graphs[0], lab.Scaling()),
      2));
  EXPECT_GT(db.DistanceComputations(), after_build);
}

}  // namespace
}  // namespace strg::api
