// ctest-labels: unit
#include <gtest/gtest.h>

#include <cstdio>

#include "core/persistence.h"
#include "storage/catalog.h"
#include "storage/serializer.h"
#include "util/random.h"
#include "video/scenes.h"

namespace strg::storage {
namespace {

TEST(Serializer, PrimitivesRoundTrip) {
  Writer w;
  w.PutU8(200);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutDouble(-3.14159);
  w.PutString("hello strg");
  Reader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 200);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.GetDouble(), -3.14159);
  EXPECT_EQ(r.GetString(), "hello strg");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serializer, VarintRoundTripAcrossMagnitudes) {
  Writer w;
  std::vector<uint64_t> values{0, 1, 127, 128, 300, 16384, 1u << 31,
                               0xFFFFFFFFFFFFFFFFULL};
  for (uint64_t v : values) w.PutVarint(v);
  Reader r(w.bytes());
  for (uint64_t v : values) EXPECT_EQ(r.GetVarint(), v);
}

TEST(Serializer, TruncatedInputThrows) {
  Writer w;
  w.PutU64(42);
  std::string bytes = w.Take();
  bytes.resize(4);
  Reader r(bytes);
  EXPECT_THROW(r.GetU64(), std::out_of_range);
}

TEST(Serializer, SequenceRoundTrip) {
  Rng rng(5);
  dist::Sequence seq(7);
  for (auto& v : seq) {
    for (double& x : v) x = rng.Uniform(-5, 5);
  }
  Writer w;
  EncodeSequence(seq, &w);
  Reader r(w.bytes());
  dist::Sequence back;
  DecodeSequence(&r, &back);
  ASSERT_EQ(back.size(), seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    for (size_t k = 0; k < dist::kFeatureDim; ++k) {
      EXPECT_DOUBLE_EQ(back[i][k], seq[i][k]);
    }
  }
}

core::Og MakeOg(uint64_t seed) {
  Rng rng(seed);
  core::Og og;
  og.id = 7;
  og.start_frame = 42;
  for (int i = 0; i < 10; ++i) {
    graph::NodeAttr a;
    a.size = rng.Uniform(1, 100);
    a.color = {rng.Uniform(0, 255), rng.Uniform(0, 255), rng.Uniform(0, 255)};
    a.cx = rng.Uniform(0, 80);
    a.cy = rng.Uniform(0, 60);
    og.sequence.push_back(a);
  }
  og.member_orgs = {3, 5, 900};
  return og;
}

TEST(Serializer, OgRoundTrip) {
  core::Og og = MakeOg(3);
  Writer w;
  EncodeOg(og, &w);
  Reader r(w.bytes());
  core::Og back = DecodeOg(&r);
  EXPECT_EQ(back.id, og.id);
  EXPECT_EQ(back.start_frame, og.start_frame);
  ASSERT_EQ(back.Length(), og.Length());
  EXPECT_EQ(back.member_orgs, og.member_orgs);
  for (size_t i = 0; i < og.Length(); ++i) {
    EXPECT_DOUBLE_EQ(back.sequence[i].cx, og.sequence[i].cx);
    EXPECT_DOUBLE_EQ(back.sequence[i].size, og.sequence[i].size);
  }
}

TEST(Serializer, RagRoundTripPreservesEdges) {
  graph::Rag rag;
  graph::NodeAttr a;
  a.size = 10;
  int n0 = rag.AddNode(a);
  a.cx = 5;
  int n1 = rag.AddNode(a);
  a.cy = 7;
  int n2 = rag.AddNode(a);
  rag.AddEdge(n0, n1);
  rag.AddEdge(n1, n2);

  Writer w;
  EncodeRag(rag, &w);
  Reader r(w.bytes());
  graph::Rag back = DecodeRag(&r);
  EXPECT_EQ(back.NumNodes(), 3u);
  EXPECT_EQ(back.NumEdges(), 2u);
  EXPECT_TRUE(back.HasEdge(n0, n1));
  EXPECT_TRUE(back.HasEdge(n1, n2));
  EXPECT_FALSE(back.HasEdge(n0, n2));
  EXPECT_DOUBLE_EQ(back.EdgeAttr(n0, n1)->distance,
                   rag.EdgeAttr(n0, n1)->distance);
}

TEST(Catalog, SerializeDeserializeRoundTrip) {
  Catalog catalog;
  CatalogSegment seg;
  seg.video_name = "cam-1";
  seg.frame_width = 80;
  seg.frame_height = 60;
  seg.num_frames = 500;
  seg.ogs = {MakeOg(1), MakeOg(2)};
  graph::NodeAttr bg_attr;
  bg_attr.size = 999;
  seg.background.rag.AddNode(bg_attr);
  catalog.AddSegment(seg);

  Catalog back = Catalog::TryDeserialize(catalog.Serialize()).value();
  ASSERT_EQ(back.NumSegments(), 1u);
  EXPECT_EQ(back.TotalOgs(), 2u);
  const CatalogSegment& s = back.segments()[0];
  EXPECT_EQ(s.video_name, "cam-1");
  EXPECT_EQ(s.num_frames, 500u);
  EXPECT_EQ(s.background.rag.NumNodes(), 1u);
  EXPECT_EQ(s.ogs[0].start_frame, 42);
}

TEST(Catalog, RejectsBadMagicAndTrailingBytes) {
  EXPECT_FALSE(Catalog::TryDeserialize("garbage-bytes").ok());
  Catalog catalog;
  std::string bytes = catalog.Serialize();
  bytes += "x";
  EXPECT_FALSE(Catalog::TryDeserialize(bytes).ok());
}

TEST(Catalog, FileRoundTrip) {
  Catalog catalog;
  CatalogSegment seg;
  seg.video_name = "file-test";
  seg.ogs = {MakeOg(9)};
  catalog.AddSegment(seg);

  std::string path = ::testing::TempDir() + "/strg_catalog_test.bin";
  ASSERT_TRUE(catalog.TrySaveToFile(path).ok());
  Catalog back = Catalog::TryLoadFromFile(path).value();
  EXPECT_EQ(back.NumSegments(), 1u);
  EXPECT_EQ(back.segments()[0].video_name, "file-test");
  std::remove(path.c_str());
}

TEST(Persistence, DatabaseSurvivesSaveAndRestore) {
  using namespace strg::api;
  video::SceneParams sp;
  sp.num_objects = 4;
  sp.spawn_gap = 26;
  sp.noise_stddev = 0.0;
  PipelineParams pp;
  pp.segmenter.use_mean_shift = false;
  SegmentResult segment = ProcessScene(video::MakeLabScene(sp), pp);

  index::StrgIndexParams ip;
  ip.num_clusters = 2;
  VideoDatabase original(ip);
  original.AddVideo("lab", segment);

  Catalog catalog;
  catalog.AddSegment(ToCatalogSegment("lab", segment));
  Catalog reloaded = Catalog::TryDeserialize(catalog.Serialize()).value();
  VideoDatabase restored = RestoreVideoDatabase(reloaded, ip);

  EXPECT_EQ(restored.NumVideos(), original.NumVideos());
  EXPECT_EQ(restored.NumObjectGraphs(), original.NumObjectGraphs());

  // Same query must return the same answer set (index rebuild is
  // deterministic for fixed parameters).
  const core::Og& probe = segment.decomposition.object_graphs[0];
  auto a = original.FindSimilar(probe, 3, segment.Scaling());
  auto b = restored.FindSimilar(probe, 3, segment.Scaling());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].og_id, b[i].og_id);
    EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance);
  }
}

}  // namespace
}  // namespace strg::storage
