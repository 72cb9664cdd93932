// ctest-labels: recovery
// Crash-recovery fault injection for the durability layer (storage::Wal* +
// server::DurableQueryEngine).
//
// The invariant under test, from every crash point in the matrix: any
// generation whose AddVideo/AddObjectGraph call *returned* (was acked) is
// present after reopen, and the recovered database answers Query
// identically to the pre-crash snapshot. Corrupt or torn WAL tails are
// detected by checksum/framing and truncated — never replayed.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "server/durable_engine.h"
#include "storage/crc32c.h"
#include "storage/wal.h"
#include "synth/generator.h"

namespace strg::server {
namespace {

namespace fs = std::filesystem;

// ---- Fixtures -----------------------------------------------------------

struct Fixture {
  api::SegmentResult segment;           ///< base OGs, ingested via AddVideo
  std::vector<core::Og> stream;         ///< OGs for AddObjectGraph calls
  std::vector<dist::Sequence> queries;  ///< probe sequences
};

Fixture MakeFixture(size_t base, uint64_t seed) {
  synth::SynthParams sp;
  sp.items_per_cluster = 1;
  sp.seed = seed;
  synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);

  Fixture fx;
  fx.segment.frame_width = 100;
  fx.segment.frame_height = 100;
  size_t frames = 0;
  for (size_t i = 0; i < ds.ogs.size(); ++i) {
    const core::Og& og = ds.ogs[i];
    frames = std::max(frames,
                      static_cast<size_t>(og.start_frame) + og.Length());
    if (i < base) {
      fx.segment.decomposition.object_graphs.push_back(og);
    } else {
      fx.stream.push_back(og);
    }
  }
  fx.segment.num_frames = frames;
  fx.queries = ds.Sequences(synth::SynthScaling());
  return fx;
}

index::StrgIndexParams FastIndex() {
  index::StrgIndexParams p;
  p.num_clusters = 4;
  p.cluster_params.max_iterations = 4;
  return p;
}

/// Fresh, empty durability directory per test.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/strg_wal_" + name;
  fs::remove_all(dir);
  return dir;
}

DurableEngineOptions SmallEngine(
    storage::WalSyncPolicy policy = storage::WalSyncPolicy::kEveryRecord,
    size_t compact_every = 0) {
  DurableEngineOptions o;
  o.wal.sync_policy = policy;
  o.compact_every = compact_every;
  o.engine.num_threads = 2;
  return o;
}

std::unique_ptr<DurableQueryEngine> MustOpen(
    const std::string& dir, const DurableEngineOptions& opts) {
  auto engine = DurableQueryEngine::Open(dir, FastIndex(), opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Snapshot of the answers a database gives to a fixed probe set —
/// compared field-by-field across a crash/reopen boundary.
std::vector<api::VideoDatabase::QueryHit> Answers(
    const DurableQueryEngine& e, const Fixture& fx) {
  const api::VideoDatabase& db = e.engine().snapshot()->db;
  std::vector<api::VideoDatabase::QueryHit> out;
  for (size_t i = 0; i < 3 && i < fx.queries.size(); ++i) {
    auto hits =
        db.Query(api::QuerySpec::Similar(fx.queries[i], 100000));
    out.insert(out.end(), hits.begin(), hits.end());
  }
  auto active = db.Query(api::QuerySpec::Active("lab", 0, 1 << 30));
  out.insert(out.end(), active.begin(), active.end());
  return out;
}

void ExpectSameAnswers(const std::vector<api::VideoDatabase::QueryHit>& a,
                       const std::vector<api::VideoDatabase::QueryHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].og_id, b[i].og_id) << "hit " << i;
    EXPECT_EQ(a[i].video, b[i].video) << "hit " << i;
    EXPECT_EQ(a[i].start_frame, b[i].start_frame) << "hit " << i;
    EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance) << "hit " << i;
  }
}

// ---- CRC32C + raw log framing -------------------------------------------

/// Bit-at-a-time CRC32C (reflected Castagnoli polynomial): the definition
/// every storage::Crc32c tier must reproduce on every input, so WAL and
/// page files written by any earlier build, on any host, still verify.
uint32_t ReferenceCrc32c(const char* data, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::string RandomBytes(std::mt19937_64* rng, size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>((*rng)() & 0xFF);
  return bytes;
}

TEST(Crc32c, KnownVectorAndChaining) {
  // The dispatched entry point (the host's fastest tier, or slice-by-8
  // under STRG_FORCE_SCALAR=1), the portable tier, and every other tier
  // the host runs (so the hardware tier is checked under the override too).
  std::vector<storage::Crc32cTier> tiers = {
      {"Crc32c", &storage::Crc32c}, {"Crc32cPortable", &storage::Crc32cPortable}};
  for (const storage::Crc32cTier& tier : storage::Crc32cTiers()) {
    if (tier.fn != &storage::Crc32cPortable) tiers.push_back(tier);
  }
  // RFC 3720 check value for "123456789".
  const char kCheck[] = "123456789";
  EXPECT_EQ(ReferenceCrc32c(kCheck, 9, 0), 0xE3069283u);
  for (const storage::Crc32cTier& tier : tiers) {
    SCOPED_TRACE(tier.name);
    const auto crc = tier.fn;
    EXPECT_EQ(crc(kCheck, 9, 0), 0xE3069283u);
    EXPECT_EQ(crc(kCheck, 0, 0), 0u);
    // Chained partial computation must equal the one-shot CRC.
    uint32_t part = crc(kCheck, 4, 0);
    EXPECT_EQ(crc(kCheck + 4, 5, part), crc(kCheck, 9, 0));

    std::mt19937_64 rng(20260517);
    // Every length 0..64 at each of the 8 start offsets: covers the 8-byte
    // step, the byte tail, and every misalignment of the word reads.
    const std::string small = RandomBytes(&rng, 8 + 64);
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t len = 0; len <= 64; ++len) {
        EXPECT_EQ(crc(small.data() + offset, len, 0),
                  ReferenceCrc32c(small.data() + offset, len, 0))
            << "offset " << offset << " len " << len;
      }
    }
    // Whole 4 KiB pages (the pager's checksum unit), from random seeds too.
    for (int page = 0; page < 8; ++page) {
      const std::string bytes = RandomBytes(&rng, 4096);
      const uint32_t seed = page == 0 ? 0u : static_cast<uint32_t>(rng());
      EXPECT_EQ(crc(bytes.data(), bytes.size(), seed),
                ReferenceCrc32c(bytes.data(), bytes.size(), seed))
          << "page " << page;
    }
    // Chained seeds: any split point, from any starting seed, equals the
    // one-shot reference.
    const std::string chain = RandomBytes(&rng, 301);
    for (uint32_t seed : {0u, 0xFFFFFFFFu, static_cast<uint32_t>(rng())}) {
      const uint32_t whole = ReferenceCrc32c(chain.data(), chain.size(), seed);
      for (size_t cut = 0; cut <= chain.size(); cut += 7) {
        const uint32_t head = crc(chain.data(), cut, seed);
        EXPECT_EQ(crc(chain.data() + cut, chain.size() - cut, head), whole)
            << "seed " << seed << " cut " << cut;
      }
    }
  }
}

TEST(Wal, AppendRecoverRoundTrip) {
  std::string dir = FreshDir("roundtrip");
  fs::create_directories(dir);
  const std::string log = dir + "/wal.log";

  {
    auto w = storage::WalWriter::Open(log);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(w->Append("alpha").ok());
    EXPECT_TRUE(w->Append(std::string(1000, 'x')).ok());
    EXPECT_TRUE(w->Append("").ok());  // empty payloads are legal
    EXPECT_EQ(w->records_appended(), 3u);
    EXPECT_EQ(w->syncs(), 3u);  // kEveryRecord default
  }

  auto rec = storage::RecoverWal(log);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->records.size(), 3u);
  EXPECT_EQ(rec->records[0], "alpha");
  EXPECT_EQ(rec->records[1], std::string(1000, 'x'));
  EXPECT_EQ(rec->records[2], "");
  EXPECT_FALSE(rec->tail_truncated);
  EXPECT_EQ(rec->valid_bytes, fs::file_size(log));
}

TEST(Wal, TornTailIsTruncatedOnOpen) {
  std::string dir = FreshDir("torn");
  fs::create_directories(dir);
  const std::string log = dir + "/wal.log";
  {
    auto w = storage::WalWriter::Open(log);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append("first").ok());
    ASSERT_TRUE(w->Append("second").ok());
  }
  const uint64_t clean_size = fs::file_size(log);

  // Simulate a crash mid-append: a header promising more payload than the
  // file holds (the kill-after-append-before-sync crash point).
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    const char torn_header[8] = {100, 0, 0, 0, 0, 0, 0, 0};
    out.write(torn_header, sizeof(torn_header));
    out.write("only-a-few-bytes", 16);
  }
  ASSERT_GT(fs::file_size(log), clean_size);

  auto rec = storage::RecoverWal(log);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->records.size(), 2u);
  EXPECT_TRUE(rec->tail_truncated);
  EXPECT_EQ(rec->valid_bytes, clean_size);
  // The file itself was healed: a second scan is clean.
  EXPECT_EQ(fs::file_size(log), clean_size);
  auto again = storage::RecoverWal(log);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->tail_truncated);
  EXPECT_EQ(again->records.size(), 2u);
}

TEST(Wal, BitFlipIsRejectedByChecksum) {
  std::string dir = FreshDir("bitflip");
  fs::create_directories(dir);
  const std::string log = dir + "/wal.log";
  uint64_t first_record_end = 0;
  {
    auto w = storage::WalWriter::Open(log);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append("record-zero").ok());
    first_record_end = w->bytes_appended();
    ASSERT_TRUE(w->Append("record-one").ok());
    ASSERT_TRUE(w->Append("record-two").ok());
  }

  // Flip one payload bit inside the *middle* record.
  {
    std::fstream f(log, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(first_record_end) + 8 + 2);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(first_record_end) + 8 + 2);
    f.write(&byte, 1);
  }

  // The checksum rejects the flipped record; the clean prefix survives and
  // the suffix after the damage is dropped with it (prefix semantics —
  // record N+1 must never be replayed when record N is gone).
  auto rec = storage::RecoverWal(log);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->records.size(), 1u);
  EXPECT_EQ(rec->records[0], "record-zero");
  EXPECT_TRUE(rec->tail_truncated);
  EXPECT_EQ(fs::file_size(log), first_record_end);
}

// ---- Engine-level crash matrix ------------------------------------------

TEST(DurableEngine, AckedGenerationsSurviveReopen) {
  Fixture fx = MakeFixture(8, 7);
  std::string dir = FreshDir("acked");

  uint64_t acked_gen = 0;
  std::vector<api::VideoDatabase::QueryHit> before;
  {
    auto e = MustOpen(dir, SmallEngine());
    int segment_id = -1;
    auto gen = e->AddVideo("lab", fx.segment, &segment_id);
    ASSERT_TRUE(gen.ok());
    ASSERT_EQ(segment_id, 0);
    for (size_t i = 0; i < 6; ++i) {
      auto g = e->AddObjectGraph(segment_id, "lab", fx.stream[i],
                                 synth::SynthScaling());
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      acked_gen = g.value();
    }
    EXPECT_EQ(acked_gen, 7u);
    before = Answers(*e, fx);
  }  // destructor: the process "dies" with no further writes

  auto e = MustOpen(dir, SmallEngine());
  EXPECT_EQ(e->Generation(), acked_gen);
  EXPECT_EQ(e->recovery().replayed_records, 7u);
  EXPECT_FALSE(e->recovery().tail_truncated);
  EXPECT_EQ(e->engine().snapshot()->db.NumObjectGraphs(), 8u + 6u);
  ExpectSameAnswers(before, Answers(*e, fx));

  // The recovered engine keeps serving: the unified Query path answers
  // through cache + admission as before the crash.
  QueryResult qr = e->Query(api::QuerySpec::Similar(fx.queries[0], 5));
  EXPECT_EQ(qr.status, StatusCode::kOk);
  EXPECT_EQ(qr.hits.size(), 5u);
}

TEST(DurableEngine, CrashAfterAppendBeforePublishIsSafeToReplay) {
  Fixture fx = MakeFixture(8, 9);
  std::string dir = FreshDir("afterappend");

  std::vector<api::VideoDatabase::QueryHit> before;
  {
    auto e = MustOpen(dir, SmallEngine());
    int segment_id = -1;
    ASSERT_TRUE(e->AddVideo("lab", fx.segment, &segment_id).ok());
    ASSERT_TRUE(e->AddObjectGraph(segment_id, "lab", fx.stream[0],
                                  synth::SynthScaling())
                    .ok());
    // Crash point: the record reaches the log but the call never returns
    // (not acked, generation never published).
    e->set_fail_point(FailPoint::kAfterWalAppend);
    auto g = e->AddObjectGraph(segment_id, "lab", fx.stream[1],
                               synth::SynthScaling());
    EXPECT_FALSE(g.ok());
    EXPECT_EQ(e->Generation(), 2u);  // unchanged: never published
  }

  // Replaying the orphan record is allowed (it was durable, just unacked):
  // the acked prefix must be present, and the orphan shows up as one more
  // OG — a write the client never heard about, which durability permits.
  auto e = MustOpen(dir, SmallEngine());
  EXPECT_EQ(e->recovery().replayed_records, 3u);
  EXPECT_EQ(e->Generation(), 3u);
  EXPECT_EQ(e->engine().snapshot()->db.NumObjectGraphs(), 8u + 2u);
}

TEST(DurableEngine, CrashMidCompactionOrphanTmpIsIgnored) {
  Fixture fx = MakeFixture(8, 11);
  std::string dir = FreshDir("orphantmp");

  std::vector<api::VideoDatabase::QueryHit> before;
  {
    auto e = MustOpen(dir, SmallEngine());
    int segment_id = -1;
    ASSERT_TRUE(e->AddVideo("lab", fx.segment, &segment_id).ok());
    ASSERT_TRUE(e->AddObjectGraph(segment_id, "lab", fx.stream[0],
                                  synth::SynthScaling())
                    .ok());
    before = Answers(*e, fx);
  }
  // Crash mid-compaction: a half-written tmp snapshot is on disk.
  {
    std::ofstream tmp(DurableQueryEngine::SnapshotTmpPath(dir),
                      std::ios::binary);
    tmp << "half-written garbage that must never be loaded";
  }

  auto e = MustOpen(dir, SmallEngine());
  EXPECT_TRUE(e->recovery().removed_orphan_tmp);
  EXPECT_FALSE(fs::exists(DurableQueryEngine::SnapshotTmpPath(dir)));
  EXPECT_EQ(e->Generation(), 2u);
  ExpectSameAnswers(before, Answers(*e, fx));
}

TEST(DurableEngine, CrashBetweenSnapshotRenameAndLogResetSkipsStaleRecords) {
  Fixture fx = MakeFixture(8, 13);
  std::string dir = FreshDir("stalelog");

  std::vector<api::VideoDatabase::QueryHit> before;
  uint64_t acked_gen = 0;
  {
    auto e = MustOpen(dir, SmallEngine());
    int segment_id = -1;
    ASSERT_TRUE(e->AddVideo("lab", fx.segment, &segment_id).ok());
    for (size_t i = 0; i < 3; ++i) {
      auto g = e->AddObjectGraph(segment_id, "lab", fx.stream[i],
                                 synth::SynthScaling());
      ASSERT_TRUE(g.ok());
      acked_gen = g.value();
    }
    before = Answers(*e, fx);
    // Crash point: snapshot published, log never reset — every log record
    // is now a stale duplicate of snapshot contents.
    e->set_fail_point(FailPoint::kAfterSnapshotRename);
    EXPECT_FALSE(e->Compact().ok());
  }
  ASSERT_TRUE(fs::exists(DurableQueryEngine::SnapshotPath(dir)));
  ASSERT_GT(fs::file_size(DurableQueryEngine::LogPath(dir)), 0u);

  auto e = MustOpen(dir, SmallEngine());
  // Every record was skipped as stale — nothing double-applied.
  EXPECT_EQ(e->recovery().stale_records, 4u);
  EXPECT_EQ(e->recovery().replayed_records, 0u);
  EXPECT_EQ(e->recovery().snapshot_segments, 1u);
  EXPECT_EQ(e->Generation(), acked_gen);
  EXPECT_EQ(e->engine().snapshot()->db.NumObjectGraphs(), 8u + 3u);
  ExpectSameAnswers(before, Answers(*e, fx));
}

TEST(DurableEngine, CompactionBoundsReplayAndPreservesAnswers) {
  Fixture fx = MakeFixture(8, 17);
  std::string dir = FreshDir("compact");

  std::vector<api::VideoDatabase::QueryHit> before;
  uint64_t acked_gen = 0;
  {
    // Compact every 4 records: 1 AddVideo + 10 AddObjectGraph = 11 ops,
    // so at least two compactions fire mid-stream.
    auto e = MustOpen(dir, SmallEngine(storage::WalSyncPolicy::kEveryRecord,
                                       /*compact_every=*/4));
    int segment_id = -1;
    ASSERT_TRUE(e->AddVideo("lab", fx.segment, &segment_id).ok());
    for (size_t i = 0; i < 10; ++i) {
      auto g = e->AddObjectGraph(segment_id, "lab", fx.stream[i],
                                 synth::SynthScaling());
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      acked_gen = g.value();
    }
    EXPECT_GE(e->engine().metrics().wal_compactions.load(), 2u);
    before = Answers(*e, fx);
  }

  auto e = MustOpen(dir, SmallEngine(storage::WalSyncPolicy::kEveryRecord,
                                     /*compact_every=*/4));
  // Replay is bounded: most of the state came from the snapshot.
  EXPECT_EQ(e->recovery().snapshot_segments, 1u);
  EXPECT_GE(e->recovery().snapshot_ogs, 8u);
  EXPECT_LE(e->recovery().replayed_records, 4u);
  EXPECT_EQ(e->Generation(), acked_gen);
  EXPECT_EQ(e->engine().snapshot()->db.NumObjectGraphs(), 8u + 10u);
  ExpectSameAnswers(before, Answers(*e, fx));
}

TEST(DurableEngine, RelaxedSyncPoliciesStillRecoverAfterCleanShutdown) {
  Fixture fx = MakeFixture(8, 19);
  for (auto policy : {storage::WalSyncPolicy::kEveryN,
                      storage::WalSyncPolicy::kOnPublish}) {
    std::string dir = FreshDir(
        policy == storage::WalSyncPolicy::kEveryN ? "everyn" : "onpublish");
    uint64_t acked_gen = 0;
    {
      DurableEngineOptions opts = SmallEngine(policy);
      opts.wal.sync_every_n = 4;
      auto e = MustOpen(dir, opts);
      int segment_id = -1;
      ASSERT_TRUE(e->AddVideo("lab", fx.segment, &segment_id).ok());
      for (size_t i = 0; i < 5; ++i) {
        auto g = e->AddObjectGraph(segment_id, "lab", fx.stream[i],
                                   synth::SynthScaling());
        ASSERT_TRUE(g.ok());
        acked_gen = g.value();
      }
      if (policy == storage::WalSyncPolicy::kOnPublish) {
        // No automatic fsync at all until Sync()/Compact().
        EXPECT_EQ(e->engine().metrics().wal_syncs.load(), 0u);
        EXPECT_TRUE(e->Sync().ok());
        EXPECT_EQ(e->engine().metrics().wal_syncs.load(), 1u);
      } else {
        // Group commit: one fsync per sync_every_n records.
        EXPECT_LT(e->engine().metrics().wal_syncs.load(), 6u);
      }
    }
    auto e = MustOpen(dir, SmallEngine(policy));
    EXPECT_EQ(e->Generation(), acked_gen) << "policy "
                                          << static_cast<int>(policy);
    EXPECT_EQ(e->engine().snapshot()->db.NumObjectGraphs(), 8u + 5u);
  }
}

TEST(DurableEngine, CorruptSnapshotIsATypedError) {
  Fixture fx = MakeFixture(8, 23);
  std::string dir = FreshDir("badsnap");
  {
    auto e = MustOpen(dir, SmallEngine(storage::WalSyncPolicy::kEveryRecord,
                                       /*compact_every=*/1));
    ASSERT_TRUE(e->AddVideo("lab", fx.segment).ok());
    ASSERT_TRUE(fs::exists(DurableQueryEngine::SnapshotPath(dir)));
  }
  {
    std::ofstream snap(DurableQueryEngine::SnapshotPath(dir),
                       std::ios::binary | std::ios::trunc);
    snap << "not a snapshot";
  }
  auto e = DurableQueryEngine::Open(dir, FastIndex(), SmallEngine());
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), api::StatusCode::kCorruption);
}

TEST(DurableEngine, UnknownSegmentIsNotFoundAndNothingIsLogged) {
  Fixture fx = MakeFixture(8, 29);
  std::string dir = FreshDir("notfound");
  auto e = MustOpen(dir, SmallEngine());
  ASSERT_TRUE(e->AddVideo("lab", fx.segment).ok());
  const uint64_t appends = e->engine().metrics().wal_appends.load();

  auto g = e->AddObjectGraph(99, "lab", fx.stream[0], synth::SynthScaling());
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), api::StatusCode::kNotFound);
  EXPECT_EQ(e->engine().metrics().wal_appends.load(), appends);
}

TEST(DurableEngine, CrashAfterTmpSnapshotWriteServesOldSnapshotPlusLog) {
  Fixture fx = MakeFixture(8, 37);
  std::string dir = FreshDir("tmpcrash");

  std::vector<api::VideoDatabase::QueryHit> before;
  {
    auto e = MustOpen(dir, SmallEngine());
    int segment_id = -1;
    ASSERT_TRUE(e->AddVideo("lab", fx.segment, &segment_id).ok());
    ASSERT_TRUE(e->AddObjectGraph(segment_id, "lab", fx.stream[0],
                                  synth::SynthScaling())
                    .ok());
    before = Answers(*e, fx);
    // Crash point: the tmp snapshot was fully written and fsynced, but the
    // process died before the rename published it.
    e->set_fail_point(FailPoint::kAfterSnapshotTmpWrite);
    EXPECT_FALSE(e->Compact().ok());
  }
  // A real tmp file (a complete snapshot, not garbage) is on disk, the
  // published snapshot does not exist, and the log still covers everything.
  ASSERT_TRUE(fs::exists(DurableQueryEngine::SnapshotTmpPath(dir)));
  ASSERT_FALSE(fs::exists(DurableQueryEngine::SnapshotPath(dir)));
  ASSERT_GT(fs::file_size(DurableQueryEngine::LogPath(dir)), 0u);

  auto e = MustOpen(dir, SmallEngine());
  EXPECT_TRUE(e->recovery().removed_orphan_tmp);
  EXPECT_FALSE(fs::exists(DurableQueryEngine::SnapshotTmpPath(dir)));
  // The whole state came back from the log (there was no snapshot yet).
  EXPECT_EQ(e->recovery().replayed_records, 2u);
  EXPECT_EQ(e->Generation(), 2u);
  ExpectSameAnswers(before, Answers(*e, fx));
}

TEST(DurableEngine, RecoverySweepsEveryOrphanTmpFile) {
  Fixture fx = MakeFixture(8, 41);
  std::string dir = FreshDir("tmpsweep");
  {
    auto e = MustOpen(dir, SmallEngine());
    ASSERT_TRUE(e->AddVideo("lab", fx.segment).ok());
  }
  // Strew several orphaned temp files around: the flat snapshot tmp, the
  // paged snapshot tmp, and an arbitrary one — a crashed compaction of any
  // vintage. All must be swept, whatever mode the engine reopens in.
  for (const std::string& path :
       {DurableQueryEngine::SnapshotTmpPath(dir),
        DurableQueryEngine::PagedSnapshotTmpPath(dir),
        dir + "/stray-download.tmp"}) {
    std::ofstream tmp(path, std::ios::binary);
    tmp << "orphan";
  }

  auto e = MustOpen(dir, SmallEngine());
  EXPECT_TRUE(e->recovery().removed_orphan_tmp);
  EXPECT_FALSE(fs::exists(DurableQueryEngine::SnapshotTmpPath(dir)));
  EXPECT_FALSE(fs::exists(DurableQueryEngine::PagedSnapshotTmpPath(dir)));
  EXPECT_FALSE(fs::exists(dir + "/stray-download.tmp"));
  EXPECT_EQ(e->Generation(), 1u);
}

// ---- Paged mode (out-of-core storage engine) ----------------------------

DurableEngineOptions PagedEngine(size_t compact_every = 0) {
  DurableEngineOptions o = SmallEngine(storage::WalSyncPolicy::kEveryRecord,
                                       compact_every);
  o.storage.paged = true;
  o.storage.page_size = 256;        // small pages exercise overflow chains
  o.storage.cache_bytes = 16 * 256; // and a cache far below the dataset
  o.storage.cache_shards = 2;
  return o;
}

TEST(DurableEngine, PagedModeAnswersMatchInRamMode) {
  Fixture fx = MakeFixture(8, 43);
  std::string flat_dir = FreshDir("paged_eq_flat");
  std::string paged_dir = FreshDir("paged_eq_paged");

  auto flat = MustOpen(flat_dir, SmallEngine());
  auto paged = MustOpen(paged_dir, PagedEngine());
  for (auto* e : {flat.get(), paged.get()}) {
    int segment_id = -1;
    ASSERT_TRUE(e->AddVideo("lab", fx.segment, &segment_id).ok());
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(e->AddObjectGraph(segment_id, "lab", fx.stream[i],
                                    synth::SynthScaling())
                      .ok());
    }
  }
  // Identical answers through a leaf store that actually paged: the cache
  // saw traffic and the backing file outgrew the cache budget.
  ExpectSameAnswers(Answers(*flat, fx), Answers(*paged, fx));
  ASSERT_NE(paged->paged_store(), nullptr);
  storage::BufferCacheStats cs = paged->paged_store()->cache_stats();
  EXPECT_GT(cs.hits + cs.misses, 0u);
  EXPECT_GT(paged->paged_store()->file().num_pages() * 256,
            PagedEngine().storage.cache_bytes);
  EXPECT_EQ(flat->paged_store(), nullptr);
}

TEST(DurableEngine, PagedModeRecoversThroughCompactionAndReopen) {
  Fixture fx = MakeFixture(8, 47);
  std::string dir = FreshDir("paged_recover");

  std::vector<api::VideoDatabase::QueryHit> before;
  uint64_t acked_gen = 0;
  {
    auto e = MustOpen(dir, PagedEngine(/*compact_every=*/4));
    int segment_id = -1;
    ASSERT_TRUE(e->AddVideo("lab", fx.segment, &segment_id).ok());
    for (size_t i = 0; i < 6; ++i) {
      auto g = e->AddObjectGraph(segment_id, "lab", fx.stream[i],
                                 synth::SynthScaling());
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      acked_gen = g.value();
    }
    EXPECT_GE(e->engine().metrics().wal_compactions.load(), 1u);
    before = Answers(*e, fx);
  }
  // Compaction published the snapshot as a page file, not a flat blob.
  ASSERT_TRUE(fs::exists(DurableQueryEngine::PagedSnapshotPath(dir)));
  ASSERT_FALSE(fs::exists(DurableQueryEngine::SnapshotPath(dir)));

  auto e = MustOpen(dir, PagedEngine(/*compact_every=*/4));
  EXPECT_EQ(e->recovery().snapshot_segments, 1u);
  EXPECT_GE(e->recovery().snapshot_ogs, 8u);
  EXPECT_EQ(e->Generation(), acked_gen);
  EXPECT_EQ(e->engine().snapshot()->db.NumObjectGraphs(), 8u + 6u);
  ExpectSameAnswers(before, Answers(*e, fx));
}

TEST(DurableEngine, PagedCrashAfterTmpSnapshotWriteIsCleanedUp) {
  Fixture fx = MakeFixture(8, 53);
  std::string dir = FreshDir("paged_tmpcrash");

  std::vector<api::VideoDatabase::QueryHit> before;
  {
    auto e = MustOpen(dir, PagedEngine());
    ASSERT_TRUE(e->AddVideo("lab", fx.segment).ok());
    before = Answers(*e, fx);
    e->set_fail_point(FailPoint::kAfterSnapshotTmpWrite);
    EXPECT_FALSE(e->Compact().ok());
  }
  ASSERT_TRUE(fs::exists(DurableQueryEngine::PagedSnapshotTmpPath(dir)));
  ASSERT_FALSE(fs::exists(DurableQueryEngine::PagedSnapshotPath(dir)));

  auto e = MustOpen(dir, PagedEngine());
  EXPECT_TRUE(e->recovery().removed_orphan_tmp);
  EXPECT_FALSE(fs::exists(DurableQueryEngine::PagedSnapshotTmpPath(dir)));
  EXPECT_EQ(e->Generation(), 1u);
  ExpectSameAnswers(before, Answers(*e, fx));
}

TEST(DurableEngine, MetricsJsonCarriesStorageBlock) {
  Fixture fx = MakeFixture(8, 59);
  std::string paged_dir = FreshDir("paged_metrics");
  std::string flat_dir = FreshDir("flat_metrics");

  auto paged = MustOpen(paged_dir, PagedEngine());
  ASSERT_TRUE(paged->AddVideo("lab", fx.segment).ok());
  paged->Query(api::QuerySpec::Similar(fx.queries[0], 3));
  std::string json = paged->MetricsJson();
  EXPECT_NE(json.find("\"storage\":{\"paged\":true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"evictions\":"), std::string::npos);
  EXPECT_NE(json.find("\"pinned_pages\":"), std::string::npos);
  EXPECT_NE(json.find("\"resident_bytes\":"), std::string::npos);
  EXPECT_EQ(json.find("\"misses\":0,\"evictions\""), std::string::npos)
      << "paged engine never touched the cache: " << json;

  auto flat = MustOpen(flat_dir, SmallEngine());
  EXPECT_NE(flat->MetricsJson().find("\"storage\":{\"paged\":false"),
            std::string::npos);
}

TEST(DurableEngine, MetricsJsonCarriesWalAndStatusBreakdown) {
  Fixture fx = MakeFixture(8, 31);
  std::string dir = FreshDir("metrics");
  auto e = MustOpen(dir, SmallEngine());
  ASSERT_TRUE(e->AddVideo("lab", fx.segment).ok());
  e->Query(api::QuerySpec::Similar(fx.queries[0], 3));
  e->Query(api::QuerySpec::Similar(fx.queries[0], 3));  // cache hit

  std::string json = e->MetricsJson();
  EXPECT_NE(json.find("\"wal\":{\"appends\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"status_codes\":{\"OK\":2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"hit_rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"CORRUPTION\":0"), std::string::npos);
}

}  // namespace
}  // namespace strg::server
