// ctest-labels: storage
//
// Property tests for the storage codecs: randomized catalogs survive flat
// and paged round-trips byte-for-byte, and decode of damaged input —
// truncation at every prefix length, flipped bytes, trailing garbage —
// surfaces as a typed api::Status (never a crash, never silent garbage).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "storage/catalog.h"
#include "storage/pager/storage_params.h"
#include "storage/serializer.h"
#include "util/random.h"

namespace strg::storage {
namespace {

core::Og RandomOg(Rng* rng) {
  core::Og og;
  og.id = static_cast<int>(rng->Uniform(0, 1000));
  og.start_frame = static_cast<int>(rng->Uniform(0, 5000));
  int frames = 1 + static_cast<int>(rng->Uniform(0, 40));
  for (int i = 0; i < frames; ++i) {
    graph::NodeAttr a;
    a.size = rng->Uniform(1, 500);
    a.color = {rng->Uniform(0, 255), rng->Uniform(0, 255),
               rng->Uniform(0, 255)};
    a.cx = rng->Uniform(0, 320);
    a.cy = rng->Uniform(0, 240);
    og.sequence.push_back(a);
  }
  int members = static_cast<int>(rng->Uniform(0, 6));
  for (int i = 0; i < members; ++i) {
    og.member_orgs.push_back(static_cast<size_t>(rng->Uniform(0, 10000)));
  }
  return og;
}

CatalogSegment RandomSegment(Rng* rng, int index) {
  CatalogSegment seg;
  seg.video_name = "video-" + std::to_string(index) + "-" +
                   std::to_string(static_cast<int>(rng->Uniform(0, 99)));
  seg.frame_width = 16 + static_cast<int>(rng->Uniform(0, 640));
  seg.frame_height = 16 + static_cast<int>(rng->Uniform(0, 480));
  seg.num_frames = static_cast<uint64_t>(rng->Uniform(1, 10000));

  int bg_nodes = 1 + static_cast<int>(rng->Uniform(0, 8));
  std::vector<int> ids;
  for (int i = 0; i < bg_nodes; ++i) {
    graph::NodeAttr a;
    a.size = rng->Uniform(1, 5000);
    a.cx = rng->Uniform(0, seg.frame_width);
    a.cy = rng->Uniform(0, seg.frame_height);
    ids.push_back(seg.background.rag.AddNode(a));
  }
  for (size_t i = 1; i < ids.size(); ++i) {
    if (rng->Uniform(0, 1) < 0.6) seg.background.rag.AddEdge(ids[i - 1], ids[i]);
  }

  int ogs = static_cast<int>(rng->Uniform(0, 5));
  for (int i = 0; i < ogs; ++i) seg.ogs.push_back(RandomOg(rng));
  return seg;
}

Catalog RandomCatalog(uint64_t seed) {
  Rng rng(seed);
  Catalog catalog;
  int segments = 1 + static_cast<int>(rng.Uniform(0, 3));
  for (int i = 0; i < segments; ++i) {
    catalog.AddSegment(RandomSegment(&rng, i));
  }
  return catalog;
}

void ExpectSameCatalog(const Catalog& want, const Catalog& got) {
  ASSERT_EQ(got.NumSegments(), want.NumSegments());
  ASSERT_EQ(got.TotalOgs(), want.TotalOgs());
  for (size_t s = 0; s < want.NumSegments(); ++s) {
    const CatalogSegment& a = want.segments()[s];
    const CatalogSegment& b = got.segments()[s];
    EXPECT_EQ(b.video_name, a.video_name);
    EXPECT_EQ(b.frame_width, a.frame_width);
    EXPECT_EQ(b.frame_height, a.frame_height);
    EXPECT_EQ(b.num_frames, a.num_frames);
    EXPECT_EQ(b.background.rag.NumNodes(), a.background.rag.NumNodes());
    EXPECT_EQ(b.background.rag.NumEdges(), a.background.rag.NumEdges());
    ASSERT_EQ(b.ogs.size(), a.ogs.size());
    for (size_t i = 0; i < a.ogs.size(); ++i) {
      EXPECT_EQ(b.ogs[i].id, a.ogs[i].id);
      EXPECT_EQ(b.ogs[i].start_frame, a.ogs[i].start_frame);
      EXPECT_EQ(b.ogs[i].member_orgs, a.ogs[i].member_orgs);
      ASSERT_EQ(b.ogs[i].Length(), a.ogs[i].Length());
      for (size_t f = 0; f < a.ogs[i].Length(); ++f) {
        EXPECT_EQ(b.ogs[i].sequence[f].size, a.ogs[i].sequence[f].size);
        EXPECT_EQ(b.ogs[i].sequence[f].color, a.ogs[i].sequence[f].color);
        EXPECT_EQ(b.ogs[i].sequence[f].cx, a.ogs[i].sequence[f].cx);
        EXPECT_EQ(b.ogs[i].sequence[f].cy, a.ogs[i].sequence[f].cy);
      }
    }
  }
}

TEST(SerializerProperty, RandomizedCatalogsRoundTripFlat) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Catalog catalog = RandomCatalog(seed);
    std::string bytes = catalog.Serialize();
    // Identical input bytes re-serialize identically (canonical encoding).
    auto back = Catalog::TryDeserialize(bytes);
    ASSERT_TRUE(back.ok()) << back.status().message();
    ExpectSameCatalog(catalog, back.value());
    EXPECT_EQ(back.value().Serialize(), bytes);
  }
}

/// One feature value whose bits stress the codec: mostly ordinary doubles,
/// mixed with -0.0, subnormals, infinities and NaNs carrying random
/// payloads (a decoder that goes through arithmetic or a canonicalizing
/// load would lose them).
double RandomFeatureBits(Rng* rng) {
  const uint64_t raw = rng->engine()();
  switch (rng->UniformInt(0, 7)) {
    case 0:
      return -0.0;
    case 1:  // subnormal: exponent 0, nonzero mantissa, either sign
      return std::bit_cast<double>((raw & 0x800FFFFFFFFFFFFFull) | 1u);
    case 2:  // NaN: exponent all ones, nonzero payload, either sign
      return std::bit_cast<double>((raw & 0x800FFFFFFFFFFFFFull) |
                                   0x7FF0000000000001ull);
    case 3:
      return (raw & 1u) ? std::numeric_limits<double>::infinity()
                        : -std::numeric_limits<double>::infinity();
    default:
      return rng->Uniform(-1e6, 1e6);
  }
}

TEST(SerializerProperty, RandomizedSequencesRoundTrip) {
  // One Sequence is reused across every decode, as the paged index reuses
  // its scratch: lengths go up and down, so the decode must both grow the
  // buffer and shrink the logical size without leaving stale points.
  dist::Sequence back;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    dist::Sequence seq(static_cast<size_t>(rng.UniformInt(0, 60)));
    for (auto& v : seq) {
      for (double& x : v) x = RandomFeatureBits(&rng);
    }
    Writer w;
    EncodeSequence(seq, &w);
    Reader r(w.bytes());
    DecodeSequence(&r, &back);
    EXPECT_TRUE(r.AtEnd());
    ASSERT_EQ(back.size(), seq.size());
    for (size_t i = 0; i < seq.size(); ++i) {
      for (size_t k = 0; k < dist::kFeatureDim; ++k) {
        EXPECT_EQ(std::bit_cast<uint64_t>(back[i][k]),
                  std::bit_cast<uint64_t>(seq[i][k]))
            << "point " << i << " dim " << k;
      }
    }

    // Every strict prefix is truncated input: the decode throws
    // std::out_of_range, the contract the catalog turns into kCorruption.
    // The reused target may hold anything afterwards.
    const std::string& bytes = w.bytes();
    for (size_t len = 0; len < bytes.size(); ++len) {
      Reader cut(std::string_view(bytes).substr(0, len));
      EXPECT_THROW(DecodeSequence(&cut, &back), std::out_of_range)
          << "prefix length " << len;
    }
  }
}

TEST(SerializerProperty, TruncationAtEveryPrefixIsTypedCorruption) {
  Catalog catalog = RandomCatalog(42);
  std::string bytes = catalog.Serialize();
  ASSERT_GT(bytes.size(), 16u);
  // Every strict prefix must fail with a typed status — no crash, no
  // exception escaping, no partially-filled catalog passed off as intact.
  size_t stride = bytes.size() > 4096 ? 13 : 1;
  for (size_t len = 0; len < bytes.size(); len += stride) {
    auto r = Catalog::TryDeserialize(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix length " << len << " decoded";
    EXPECT_EQ(r.status().code(), api::StatusCode::kCorruption)
        << "prefix length " << len;
  }
}

TEST(SerializerProperty, TrailingGarbageAndBadMagicAreTypedCorruption) {
  Catalog catalog = RandomCatalog(7);
  std::string bytes = catalog.Serialize();

  std::string trailing = bytes + "zz";
  auto r1 = Catalog::TryDeserialize(trailing);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), api::StatusCode::kCorruption);

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x40;
  auto r2 = Catalog::TryDeserialize(bad_magic);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), api::StatusCode::kCorruption);
}

TEST(SerializerProperty, RandomByteFlipsNeverCrashDecode) {
  Catalog catalog = RandomCatalog(11);
  std::string bytes = catalog.Serialize();
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string damaged = bytes;
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<double>(damaged.size() - 1)));
    damaged[pos] ^= static_cast<char>(1 + static_cast<int>(
                        rng.Uniform(0, 254)));
    // A flipped byte may still decode (the flat format checksums nothing
    // past the magic — the WAL and page file own integrity). The contract
    // here: failure is always a typed status, success is well-formed.
    auto r = Catalog::TryDeserialize(damaged);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), api::StatusCode::kCorruption);
    } else {
      EXPECT_LE(r.value().NumSegments(), 1000u);
    }
  }
}

TEST(SerializerProperty, RandomizedCatalogsRoundTripPaged) {
  StorageParams params;
  params.paged = true;
  params.page_size = 256;
  params.cache_bytes = 16 * 256;
  params.cache_shards = 2;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Catalog catalog = RandomCatalog(seed);
    std::string path = ::testing::TempDir() + "/serializer_prop_paged.pages";
    std::remove(path.c_str());

    uint64_t user_data = 0xC0FFEE00 + seed;
    ASSERT_TRUE(catalog.TrySaveToPagedFile(path, params, user_data).ok());
    uint64_t got_user_data = 0;
    auto back = Catalog::TryLoadFromPagedFile(path, params, &got_user_data);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(got_user_data, user_data);
    ExpectSameCatalog(catalog, back.value());
    EXPECT_EQ(back.value().Serialize(), catalog.Serialize());
    std::remove(path.c_str());
  }
}

TEST(SerializerProperty, PagedLoadOfCorruptFileIsTypedStatus) {
  StorageParams params;
  params.paged = true;
  params.page_size = 256;
  std::string path = ::testing::TempDir() + "/serializer_prop_corrupt.pages";
  std::remove(path.c_str());
  Catalog catalog = RandomCatalog(3);
  ASSERT_TRUE(catalog.TrySaveToPagedFile(path, params, 0).ok());

  // Flip one byte in every page in turn; each damaged copy must load as a
  // typed error (kCorruption from the page CRC).
  std::string pristine;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      pristine.append(buf, n);
    }
    std::fclose(f);
  }
  ASSERT_GE(pristine.size(), 2 * params.page_size);
  for (size_t page = 0; page * params.page_size < pristine.size(); ++page) {
    std::string damaged = pristine;
    damaged[page * params.page_size + 20] ^= 0x3C;
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(damaged.data(), 1, damaged.size(), f),
              damaged.size());
    std::fclose(f);
    auto r = Catalog::TryLoadFromPagedFile(path, params);
    ASSERT_FALSE(r.ok()) << "page " << page << " corruption went unnoticed";
    EXPECT_EQ(r.status().code(), api::StatusCode::kCorruption);
  }

  // Missing file is kNotFound, not kCorruption.
  std::remove(path.c_str());
  auto missing = Catalog::TryLoadFromPagedFile(path, params);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), api::StatusCode::kNotFound);
}

}  // namespace
}  // namespace strg::storage
