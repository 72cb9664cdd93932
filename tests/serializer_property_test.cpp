// ctest-labels: storage
//
// Property tests for the storage codecs: randomized catalogs survive a
// round trip through the catalog file byte-for-byte, and decode of damaged
// input — truncation at every prefix length, flipped bytes, trailing
// garbage, a bad header — surfaces as kCorruption (never a crash, never
// silent garbage).
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
#include "storage/file_io.h"
#include "storage/serializer.h"
#include "storage/wal.h"
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

/// A scratch path private to the running test: ctest runs each test as
/// its own process, in parallel, so a path shared by two tests races.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/serializer_prop_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

/// The catalog file image TrySaveToFile writes.
std::string FileImage(const Catalog& catalog, uint64_t user_data = 0) {
  const std::string path = TempPath("image.catalog");
  EXPECT_TRUE(catalog.TrySaveToFile(path, user_data).ok());
  std::string bytes = ReadFileToString(path).value();
  std::remove(path.c_str());
  return bytes;
}

TEST(SerializerProperty, RandomizedCatalogsRoundTripFlat) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Catalog catalog = RandomCatalog(seed);
    const uint64_t user_data = 0xC0FFEE00 + seed;
    const std::string bytes = FileImage(catalog, user_data);
    uint64_t got_user_data = 0;
    auto back = Catalog::TryDecode(bytes, &got_user_data);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(got_user_data, user_data);
    ExpectSameCatalog(catalog, back.value());
    // The decoded catalog re-encodes to identical bytes (canonical
    // encoding).
    EXPECT_EQ(FileImage(back.value(), user_data), bytes);
  }

  // An empty catalog is a header frame and nothing else.
  uint64_t got = 1;
  auto empty = Catalog::TryDecode(FileImage(Catalog{}, 0), &got);
  ASSERT_TRUE(empty.ok()) << empty.status().message();
  EXPECT_EQ(empty.value().NumSegments(), 0u);
  EXPECT_EQ(got, 0u);
}

TEST(SerializerProperty, RandomizedCatalogsRoundTripFile) {
  // Every seed saves over the previous seed's file at one path: a save
  // that extended the old file instead of replacing it would leave frames
  // past the header's count, and the load below would refuse them.
  const std::string path = TempPath("roundtrip.catalog");
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Catalog catalog = RandomCatalog(seed);
    const uint64_t user_data = 0xC0FFEE00 + seed;
    ASSERT_TRUE(catalog.TrySaveToFile(path, user_data).ok());
    uint64_t got_user_data = 0;
    auto back = Catalog::TryLoadFromFile(path, &got_user_data);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(got_user_data, user_data);
    ExpectSameCatalog(catalog, back.value());
    // The file holds exactly the image of this catalog.
    EXPECT_EQ(ReadFileToString(path).value(), FileImage(catalog, user_data));
  }
  std::remove(path.c_str());
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

void ExpectCorruption(std::string_view bytes, const std::string& what) {
  auto r = Catalog::TryDecode(bytes);
  ASSERT_FALSE(r.ok()) << what << " decoded";
  EXPECT_EQ(r.status().code(), api::StatusCode::kCorruption) << what;
}

TEST(SerializerProperty, TruncationAtEveryPrefixIsTypedCorruption) {
  const std::string bytes = FileImage(RandomCatalog(42));
  ASSERT_GT(bytes.size(), 16u);
  // Every strict prefix must fail with a typed status — no crash, no
  // exception escaping, no partially-filled catalog passed off as intact.
  // That includes prefixes that end exactly on a frame boundary: the
  // header's segment count catches a file cut between frames.
  size_t stride = bytes.size() > 4096 ? 13 : 1;
  for (size_t len = 0; len < bytes.size(); len += stride) {
    ExpectCorruption(std::string_view(bytes).substr(0, len),
                     "prefix length " + std::to_string(len));
  }
  const FrameScan scan = ScanFrames(bytes);
  ASSERT_GE(scan.payloads.size(), 2u);
  for (size_t f = 1; f < scan.payloads.size(); ++f) {
    const size_t boundary = static_cast<size_t>(
        scan.payloads[f].data() - WalWriter::kHeaderBytes - bytes.data());
    ExpectCorruption(std::string_view(bytes).substr(0, boundary),
                     "cut before frame " + std::to_string(f));
  }
}

/// Writes `frames` as one framed file and returns its image.
std::string FramedImage(const std::vector<std::string>& frames) {
  const std::string path = TempPath("framed.catalog");
  auto w = WalWriter::Create(path, WalOptions{WalSyncPolicy::kOnPublish});
  EXPECT_TRUE(w.ok());
  for (const std::string& f : frames) EXPECT_TRUE(w->Append(f).ok());
  std::string bytes = ReadFileToString(path).value();
  std::remove(path.c_str());
  return bytes;
}

std::string HeaderFrame(uint32_t magic, uint32_t version, uint64_t count) {
  Writer w;
  w.PutU32(magic);
  w.PutU32(version);
  w.PutU64(0);
  w.PutVarint(count);
  return w.Take();
}

std::string SegmentFrame(const CatalogSegment& s) {
  Writer w;
  EncodeCatalogSegment(s, &w);
  return w.Take();
}

TEST(SerializerProperty, TrailingGarbageAndBadMagicAreTypedCorruption) {
  Catalog catalog = RandomCatalog(7);
  const std::string bytes = FileImage(catalog);
  ASSERT_TRUE(Catalog::TryDecode(bytes).ok());

  // Unframed bytes, and a whole extra (valid) frame, after the last one.
  ExpectCorruption(bytes + "zz", "trailing garbage");
  const std::string seg = SegmentFrame(catalog.segments()[0]);
  ExpectCorruption(FramedImage({HeaderFrame(Catalog::kMagic,
                                            Catalog::kVersion, 1),
                                seg, seg}),
                   "a frame past the header's count");
  ExpectCorruption(FramedImage({HeaderFrame(Catalog::kMagic,
                                            Catalog::kVersion, 2),
                                seg}),
                   "fewer frames than the header's count");

  // Well-framed headers (every CRC verifies) that are still wrong.
  ExpectCorruption(FramedImage({HeaderFrame(Catalog::kMagic ^ 0x40,
                                            Catalog::kVersion, 1),
                                seg}),
                   "bad magic");
  ExpectCorruption(FramedImage({HeaderFrame(Catalog::kMagic, 1, 1), seg}),
                   "old version");
  ExpectCorruption(FramedImage({HeaderFrame(Catalog::kMagic,
                                            Catalog::kVersion, 1) + "x",
                                seg}),
                   "trailing bytes in the header frame");
  ExpectCorruption(FramedImage({HeaderFrame(Catalog::kMagic,
                                            Catalog::kVersion, 1),
                                seg + "x"}),
                   "trailing bytes in a segment frame");
  ExpectCorruption(FramedImage({HeaderFrame(Catalog::kMagic,
                                            Catalog::kVersion, 1),
                                seg.substr(0, seg.size() / 2)}),
                   "a segment frame that does not decode");
  ExpectCorruption("", "an empty file");

  // A checksum is not a signature: a well-framed segment may still claim
  // more OGs than its bytes hold, and must not allocate for the claim.
  Writer huge;
  huge.PutString("cam");
  huge.PutU32(80);
  huge.PutU32(60);
  huge.PutU64(10);
  EncodeBackgroundGraph(core::BackgroundGraph{}, &huge);
  huge.PutVarint(1ull << 40);
  ExpectCorruption(FramedImage({HeaderFrame(Catalog::kMagic,
                                            Catalog::kVersion, 1),
                                huge.Take()}),
                   "an OG count beyond the frame");

  // The unframed catalog of earlier builds: [u32 magic][u32 version 1]...
  // read as a frame header, its magic is a length beyond kMaxRecordBytes.
  Writer old;
  old.PutU32(Catalog::kMagic);
  old.PutU32(1);
  old.PutVarint(0);
  ExpectCorruption(old.bytes(), "an unframed version-1 catalog");
}

TEST(SerializerProperty, RandomByteFlipsNeverCrashDecode) {
  const std::string bytes = FileImage(RandomCatalog(11));
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string damaged = bytes;
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<double>(damaged.size() - 1)));
    damaged[pos] ^= static_cast<char>(1 + static_cast<int>(
                        rng.Uniform(0, 254)));
    // Every byte is covered by a frame's checksum or is a frame's length
    // or checksum field, so any flip is caught before decoding.
    ExpectCorruption(damaged, "flip at byte " + std::to_string(pos));
  }
}

TEST(SerializerProperty, LoadOfCorruptOrMissingFileIsTypedStatus) {
  const std::string path = TempPath("corrupt.catalog");
  ASSERT_TRUE(RandomCatalog(3).TrySaveToFile(path, 5).ok());
  const std::string pristine = ReadFileToString(path).value();

  // Flip one byte inside each frame in turn (its length field, its
  // checksum, its payload); each damaged file loads as kCorruption.
  const FrameScan scan = ScanFrames(pristine);
  ASSERT_GE(scan.payloads.size(), 2u);
  for (size_t f = 0; f < scan.payloads.size(); ++f) {
    const size_t start = static_cast<size_t>(
        scan.payloads[f].data() - WalWriter::kHeaderBytes - pristine.data());
    for (size_t offset : {size_t{0}, size_t{5}, WalWriter::kHeaderBytes}) {
      std::string damaged = pristine;
      damaged[start + offset] ^= 0x3C;
      FILE* out = std::fopen(path.c_str(), "wb");
      ASSERT_NE(out, nullptr);
      ASSERT_EQ(std::fwrite(damaged.data(), 1, damaged.size(), out),
                damaged.size());
      std::fclose(out);
      auto r = Catalog::TryLoadFromFile(path);
      ASSERT_FALSE(r.ok()) << "frame " << f << " offset " << offset;
      EXPECT_EQ(r.status().code(), api::StatusCode::kCorruption);
      EXPECT_NE(r.status().message().find(path), std::string::npos)
          << r.status().message();
    }
  }

  // Missing file is kNotFound, not kCorruption.
  std::remove(path.c_str());
  auto missing = Catalog::TryLoadFromFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), api::StatusCode::kNotFound);
}

}  // namespace
}  // namespace strg::storage
