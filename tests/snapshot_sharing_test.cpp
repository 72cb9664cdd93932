// ctest-labels: server
//
// Structural sharing between index copies and snapshot generations: a
// write path-copies the root -> cluster path it touches, so every older
// generation (and every copy of an index) keeps answering bit-identically
// while newer ones diverge. Runs in RAM and with paged leaves.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/query_engine.h"
#include "storage/pager/paged_record_store.h"
#include "synth/generator.h"

namespace strg::server {
namespace {

constexpr size_t kBaseOgs = 40;
constexpr size_t kQueries = 16;

/// 240 synthetic OGs (48 patterns x 5): the first kBaseOgs form one video,
/// the other 200 are streamed into it afterwards; every 15th OG doubles as
/// a query.
struct Dataset {
  api::SegmentResult base;
  std::vector<core::Og> stream;
  std::vector<dist::Sequence> queries;
};

const Dataset& Data() {
  static const Dataset* data = [] {
    synth::SynthParams sp;
    sp.items_per_cluster = 5;
    sp.seed = 5;
    synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);
    auto* d = new Dataset;
    // 100x100 frames, so SegmentResult::Scaling() == synth::SynthScaling().
    d->base.frame_width = 100;
    d->base.frame_height = 100;
    size_t frames = 0;
    for (size_t i = 0; i < ds.ogs.size(); ++i) {
      const core::Og& og = ds.ogs[i];
      frames = std::max(frames, static_cast<size_t>(og.start_frame) +
                                    og.Length());
      if (i < kBaseOgs) {
        d->base.decomposition.object_graphs.push_back(og);
      } else {
        d->stream.push_back(og);
      }
    }
    d->base.num_frames = frames;
    std::vector<dist::Sequence> all = ds.Sequences(synth::SynthScaling());
    for (size_t q = 0; q < kQueries; ++q) d->queries.push_back(all[q * 15]);
    return d;
  }();
  return *data;
}

/// Few clusters and a low split threshold, so the streamed OGs overfill
/// leaves and drive the Section 5.3 split path.
index::StrgIndexParams SplittingParams(storage::PagedRecordStore* store) {
  index::StrgIndexParams p;
  p.num_clusters = 3;
  p.cluster_params.max_iterations = 4;
  p.leaf_split_threshold = 12;
  p.paged_store = store;
  return p;
}

/// Everything a reader can observe of a one-root index, as raw bits:
/// per-cluster leaf keys, ComputeStats, and kNN + range answers for every
/// query. Two equal fingerprints are bitwise-equal observations.
std::vector<uint64_t> Fingerprint(const index::StrgIndex& idx) {
  std::vector<uint64_t> fp;
  auto put = [&fp](double v) { fp.push_back(std::bit_cast<uint64_t>(v)); };
  auto put_hits = [&](const index::KnnResult& r) {
    fp.push_back(r.hits.size());
    for (const index::KnnHit& h : r.hits) {
      fp.push_back(h.og_id);
      put(h.distance);
    }
  };
  for (size_t c = 0; c < idx.NumClusters(); ++c) {
    std::vector<double> keys = idx.LeafKeys(0, c);
    fp.push_back(keys.size());
    for (double k : keys) put(k);
  }
  const index::StrgIndex::Stats s = idx.ComputeStats();
  fp.insert(fp.end(), {s.segments, s.clusters, s.ogs, s.min_leaf,
                       s.max_leaf, s.clustering.TotalDistances(),
                       s.clustering.kernel_dp_evals});
  put(s.mean_leaf);
  put(s.mean_covering_radius);
  put(s.max_covering_radius);
  for (const dist::Sequence& q : Data().queries) {
    index::KnnResult knn = idx.Knn(q, 5);
    put_hits(knn);
    put_hits(idx.RangeSearch(q, knn.hits.back().distance));
  }
  return fp;
}

std::vector<dist::Sequence> StreamSequences() {
  std::vector<dist::Sequence> seqs;
  for (const core::Og& og : Data().stream) {
    seqs.push_back(dist::OgToSequence(og, synth::SynthScaling()));
  }
  return seqs;
}

/// Parameter: true = leaves live in a paged record store.
class SnapshotSharing : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam()) return;
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = ::testing::TempDir() + "/snapshot_sharing_" + name + ".pages";
    std::remove(path_.c_str());
    storage::StorageParams sp;
    sp.paged = true;
    sp.page_size = 512;
    sp.cache_bytes = 16 * 512;
    store_ = storage::PagedRecordStore::Create(path_, sp).value();
  }
  void TearDown() override {
    if (store_ == nullptr) return;
    store_.reset();
    std::remove(path_.c_str());
  }

  index::StrgIndexParams Params() const {
    return SplittingParams(store_.get());
  }

  std::string path_;
  std::unique_ptr<storage::PagedRecordStore> store_;
};

TEST_P(SnapshotSharing, OldGenerationIsByteUnchangedAfterLaterPublishes) {
  const Dataset& data = Data();
  EngineOptions opts;
  opts.num_threads = 2;
  QueryEngine engine(Params(), opts);
  int segment_id = -1;
  engine.AddVideo("lab", data.base, &segment_id);

  const std::shared_ptr<const Snapshot> g = engine.snapshot();
  const index::StrgIndex& old_index = g->db.index();
  const size_t clusters_before = old_index.NumClusters();
  const std::vector<uint64_t> before = Fingerprint(old_index);

  // A reader keeps observing the held generation while the writer
  // publishes over it (the race the sanitizer stages check).
  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::thread reader([&] {
    do {
      if (Fingerprint(old_index) != before) mismatches.fetch_add(1);
    } while (!stop.load());
  });
  for (const core::Og& og : data.stream) {
    engine.AddObjectGraph(segment_id, "lab", og, synth::SynthScaling());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0u);

  const std::shared_ptr<const Snapshot> head = engine.snapshot();
  EXPECT_EQ(head->generation, g->generation + data.stream.size());
  EXPECT_EQ(head->db.NumObjectGraphs(), kBaseOgs + data.stream.size());
  ASSERT_GT(head->db.index().NumClusters(), clusters_before)
      << "no publish split a cluster";

  // Remove on a copy of the head: rewrites a root and a cluster that the
  // held generation may still share.
  api::VideoDatabase copy = head->db.Clone();
  ASSERT_EQ(copy.index().Remove(0), 1u);
  EXPECT_EQ(copy.index().NumIndexedOgs(), kBaseOgs + data.stream.size() - 1);
  EXPECT_EQ(head->db.index().NumIndexedOgs(), kBaseOgs + data.stream.size());

  EXPECT_EQ(g->db.NumObjectGraphs(), kBaseOgs);
  EXPECT_EQ(old_index.NumClusters(), clusters_before);
  EXPECT_EQ(Fingerprint(old_index), before);
}

TEST_P(SnapshotSharing, WritesToOneIndexCopyLeaveTheOtherUnchanged) {
  const Dataset& data = Data();
  index::StrgIndex original(Params());
  original.AddSegment(core::BackgroundGraph{},
                      data.base.ObjectSequences());
  const std::vector<uint64_t> original_fp = Fingerprint(original);

  // Inserts (with splits) into the copy leave the original alone.
  index::StrgIndex copy = original;
  const std::vector<dist::Sequence> stream = StreamSequences();
  for (size_t i = 0; i < stream.size(); ++i) {
    copy.Insert(0, stream[i], kBaseOgs + i);
  }
  ASSERT_GT(copy.NumClusters(), original.NumClusters());
  EXPECT_EQ(Fingerprint(original), original_fp);

  // And the other way round: inserts and a remove on the original leave
  // the grown copy alone.
  const std::vector<uint64_t> copy_fp = Fingerprint(copy);
  for (size_t i = 0; i < 20; ++i) {
    original.Insert(0, stream[stream.size() - 1 - i], 1000 + i);
  }
  EXPECT_EQ(original.Remove(3), 1u);
  EXPECT_EQ(Fingerprint(copy), copy_fp);
  EXPECT_NE(Fingerprint(original), original_fp);
}

INSTANTIATE_TEST_SUITE_P(RamAndPaged, SnapshotSharing, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "paged" : "ram";
                         });

TEST(SnapshotSharing, CloneAndPublishKeepClusteringCounters) {
  const Dataset& data = Data();
  api::VideoDatabase db(SplittingParams(nullptr));
  QueryEngine engine(SplittingParams(nullptr));
  int segment_id = db.AddVideo("lab", data.base);
  engine.AddVideo("lab", data.base);
  for (const core::Og& og : data.stream) {
    db.AddObjectGraph(segment_id, "lab", og, synth::SynthScaling());
    engine.AddObjectGraph(segment_id, "lab", og, synth::SynthScaling());
  }
  const cluster::ClusterStats direct = db.index().ComputeStats().clustering;
  ASSERT_GT(direct.TotalDistances(), 0u);

  EXPECT_EQ(db.Clone().index().ComputeStats().clustering, direct);
  // Every publish clones: the head must carry the counters of every
  // mutation, not just the last one.
  EXPECT_EQ(engine.snapshot()->db.index().ComputeStats().clustering, direct);
}

}  // namespace
}  // namespace strg::server
