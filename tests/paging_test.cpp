// ctest-labels: paging
//
// Out-of-core storage engine: page file format (CRC, append-only
// allocation), the read-only buffer cache (LRU, pins, overload), the
// append-only record store (inline + overflow-chained records, the tail
// page kept out of the cache, appends and commits racing readers, stats),
// and the acceptance contract that a paged index answers queries
// bit-identically to the in-RAM index at every cache size, reading only the
// candidates its resident lower bounds cannot prune, and allocating nothing
// more than the in-RAM index when every read hits the cache.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/video_database.h"
#include "distance/sequence.h"
#include "index/strg_index.h"
#include "storage/pager/buffer_cache.h"
#include "storage/pager/page_file.h"
#include "storage/pager/paged_record_store.h"
#include "storage/pager/storage_params.h"
#include "synth/generator.h"
#include "util/random.h"
#include "video/scenes.h"

// ---- global allocation counter (PagedIndex.CacheHitFetchesDoNotAllocate)
//
// The pattern of bench/bench_ingest.cpp: replacing the global operator
// new/delete in this binary lets a test count heap allocations. Counting
// is gated, so every other test is unaffected.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return operator new(size); }

// Out of line: inlined into a new-expression's cleanup, the free() would
// trip GCC's -Wmismatched-new-delete (it cannot see that new is malloc).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}

namespace strg::storage {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Flips one byte of `path` at `offset` (simulates a torn write / bit flip).
void CorruptByteAt(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c ^= 0x5A;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

// ---------------------------------------------------------------- PageFile

TEST(PageFile, CreateWriteReadReopen) {
  std::string path = TempPath("pf_roundtrip.pages");
  auto file = PageFile::Create(path, 256).value();
  EXPECT_EQ(file->page_size(), 256u);
  EXPECT_EQ(file->payload_capacity(), 256u - PageFile::kPageHeaderBytes);
  EXPECT_EQ(file->num_pages(), 1u);  // header page only

  // Allocation only extends the file, one page id after the other.
  uint32_t p = file->Allocate().value();
  EXPECT_EQ(p, 1u);
  EXPECT_EQ(file->Allocate().value(), 2u);
  ASSERT_TRUE(file->WritePage(p, PageFile::kDataPage, 7, "paged bytes").ok());
  // An empty payload (a null view) is a valid page.
  ASSERT_TRUE(file->WritePage(2, PageFile::kOverflowPage, PageFile::kNoPage,
                              std::string_view()).ok());
  ASSERT_TRUE(file->WriteHeader().ok());
  ASSERT_TRUE(file->Sync().ok());
  file.reset();

  auto back = PageFile::Open(path).value();
  EXPECT_EQ(back->page_size(), 256u);
  EXPECT_EQ(back->num_pages(), 3u);
  PageFile::PageView view;
  ASSERT_TRUE(back->ReadPage(p, &view).ok());
  EXPECT_EQ(view.type, PageFile::kDataPage);
  EXPECT_EQ(view.next_page, 7u);
  EXPECT_EQ(view.payload, "paged bytes");
  ASSERT_TRUE(back->ReadPage(2, &view).ok());
  EXPECT_EQ(view.type, PageFile::kOverflowPage);
  EXPECT_EQ(view.payload, "");
  std::remove(path.c_str());
}

TEST(PageFile, CorruptHeaderFailsOpen) {
  std::string path = TempPath("pf_badheader.pages");
  PageFile::Create(path, 128).value()->Sync().ThrowIfError();
  CorruptByteAt(path, 20);  // inside the header page's payload
  auto opened = PageFile::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), api::StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PageFile, TornDataPageIsCorruption) {
  std::string path = TempPath("pf_torn.pages");
  auto file = PageFile::Create(path, 128).value();
  uint32_t p = file->Allocate().value();
  ASSERT_TRUE(file->WritePage(p, PageFile::kDataPage, PageFile::kNoPage,
                              "torn-write victim").ok());
  ASSERT_TRUE(file->WriteHeader().ok());
  ASSERT_TRUE(file->Sync().ok());
  file.reset();

  CorruptByteAt(path, 128 + 20);  // a payload byte of page 1
  auto back = PageFile::Open(path).value();
  PageFile::PageView view;
  api::Status st = back->ReadPage(p, &view);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), api::StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(PageFile, ReadPastAllocatedRangeFails) {
  std::string path = TempPath("pf_oob.pages");
  auto file = PageFile::Create(path, 128).value();
  PageFile::PageView view;
  EXPECT_FALSE(file->ReadPage(99, &view).ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------------- BufferCache

/// A 2-frame single-shard cache over a file with `pages` pre-written pages
/// (page i holds payload "page-<i>").
struct SmallCacheFixture {
  explicit SmallCacheFixture(const std::string& name, int pages) {
    path = TempPath(name);
    file = PageFile::Create(path, 128).value();
    for (int i = 1; i <= pages; ++i) {
      uint32_t p = file->Allocate().value();
      EXPECT_TRUE(file->WritePage(p, PageFile::kDataPage, PageFile::kNoPage,
                                  "page-" + std::to_string(i)).ok());
    }
    cache = std::make_unique<BufferCache>(file.get(), 2 * 128, 1);
  }
  ~SmallCacheFixture() { std::remove(path.c_str()); }

  std::string path;
  std::unique_ptr<PageFile> file;
  std::unique_ptr<BufferCache> cache;
};

TEST(BufferCache, HitAndMissCounters) {
  SmallCacheFixture fx("bc_counters.pages", 2);
  { auto ref = fx.cache->Pin(1).value(); EXPECT_EQ(ref.payload(), "page-1"); }
  { auto ref = fx.cache->Pin(1).value(); EXPECT_EQ(ref.payload(), "page-1"); }
  BufferCacheStats s = fx.cache->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.pinned_pages, 0u);  // both refs released
  EXPECT_DOUBLE_EQ(s.HitRate(), 0.5);
}

TEST(BufferCache, EvictsLeastRecentlyUsed) {
  SmallCacheFixture fx("bc_lru.pages", 3);
  EXPECT_EQ(fx.cache->num_frames(), 2u);
  { auto r = fx.cache->Pin(1).value(); }
  { auto r = fx.cache->Pin(2).value(); }
  // Third distinct page exceeds the budget: page 1 (LRU) is evicted.
  { auto r = fx.cache->Pin(3).value(); EXPECT_EQ(r.payload(), "page-3"); }
  EXPECT_EQ(fx.cache->stats().evictions, 1u);
  { auto r = fx.cache->Pin(2).value(); }  // still resident
  EXPECT_EQ(fx.cache->stats().hits, 1u);
  { auto r = fx.cache->Pin(1).value(); }  // was evicted, misses again
  EXPECT_EQ(fx.cache->stats().misses, 4u);
}

TEST(BufferCache, PinnedFramesAreNeverEvictedAndOverloadWhenExhausted) {
  SmallCacheFixture fx("bc_pinned.pages", 3);
  auto a = fx.cache->Pin(1).value();
  auto b = fx.cache->Pin(2).value();
  EXPECT_EQ(fx.cache->stats().pinned_pages, 2u);

  // Every frame is pinned: the cache budget is a hard bound, so the third
  // pin sheds load instead of growing.
  auto c = fx.cache->Pin(3);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), api::StatusCode::kOverloaded);

  // Releasing one pin frees a frame for the same request.
  b = BufferCache::PageRef();
  auto again = fx.cache->Pin(3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().payload(), "page-3");
  EXPECT_EQ(a.payload(), "page-1");  // survivor pin untouched
}

// -------------------------------------------------------- PagedRecordStore

StorageParams SmallStoreParams() {
  StorageParams p;
  p.paged = true;
  p.page_size = 256;
  p.cache_bytes = 8 * 256;
  p.cache_shards = 2;
  return p;
}

uint64_t PageOfId(uint64_t record_id) { return record_id >> 16; }

/// Appends filler records until the page holding `record_id` is sealed.
void SealPageOf(PagedRecordStore* store, uint64_t record_id) {
  while (PageOfId(store->Append(std::string(100, 'f')).value()) ==
         PageOfId(record_id)) {
  }
}

TEST(PagedRecordStore, InlineRoundTripPreservesBytesAndType) {
  std::string path = TempPath("prs_inline.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  std::string spill;
  uint64_t a = store->Append("first record").value();
  uint64_t b = store->Append("second record").value();
  uint64_t empty = store->Append("").value();
  EXPECT_NE(a, b);

  // On the tail page: each read copies into the caller's spill buffer.
  EXPECT_EQ(store->Read(a, &spill).value().bytes(), "first record");
  EXPECT_EQ(store->Read(b, &spill).value().bytes(), "second record");
  EXPECT_EQ(store->Read(empty, &spill).value().bytes(), "");

  // Sealed: each read is a view of its pinned frame, so two refs stay
  // valid side by side whatever the spill buffer holds.
  SealPageOf(store.get(), a);
  auto ra = store->Read(a, &spill).value();
  auto rb = store->Read(b, &spill).value();
  EXPECT_EQ(ra.bytes(), "first record");
  EXPECT_EQ(rb.bytes(), "second record");
  EXPECT_EQ(store->Read(empty, &spill).value().bytes(), "");
  std::remove(path.c_str());
}

TEST(PagedRecordStore, OverflowChainRoundTrip) {
  std::string path = TempPath("prs_overflow.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  // ~10 pages worth of payload: forces a chain through overflow pages.
  Rng rng(7);
  std::string big(2500, '\0');
  for (char& c : big) c = static_cast<char>(rng.Uniform(0, 255));
  uint64_t id = store->Append(big).value();
  uint64_t small_id = store->Append("tiny").value();

  // The chain stub is on the tail page, then on a sealed one.
  std::string spill;
  EXPECT_EQ(store->Read(id, &spill).value().bytes(), big);
  EXPECT_EQ(store->Read(small_id, &spill).value().bytes(), "tiny");
  SealPageOf(store.get(), id);
  EXPECT_EQ(store->Read(id, &spill).value().bytes(), big);
  EXPECT_EQ(store->Read(small_id, &spill).value().bytes(), "tiny");

  ASSERT_TRUE(store->Commit().ok());
  PageFileStats stats = ComputePageFileStats(path).value();
  EXPECT_GE(stats.overflow_pages, 10u);
  EXPECT_EQ(store->cache_stats().pinned_pages, 0u);
  std::remove(path.c_str());
}

TEST(PagedRecordStore, ReadOfBogusIdIsNotFound) {
  std::string path = TempPath("prs_bogus.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  // Each 200-byte record nearly fills a 240-byte page payload, so the
  // first page is sealed and the second is the tail.
  uint64_t sealed = store->Append(std::string(200, 'a')).value();
  uint64_t tail = store->Append(std::string(200, 'b')).value();
  ASSERT_NE(PageOfId(sealed), PageOfId(tail));
  std::string spill;
  for (uint64_t page : {PageOfId(sealed), PageOfId(tail)}) {
    SCOPED_TRACE("page " + std::to_string(page));
    auto missing = store->Read((page << 16) | 55, &spill);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), api::StatusCode::kNotFound);
  }
  EXPECT_FALSE(store->Read(PagedRecordStore::kNoRecord, &spill).ok());
  EXPECT_EQ(store->Read(sealed, &spill).value().bytes(),
            std::string(200, 'a'));
  EXPECT_EQ(store->Read(tail, &spill).value().bytes(), std::string(200, 'b'));
  std::remove(path.c_str());
}

uint64_t Pins(const BufferCacheStats& s) { return s.hits + s.misses; }

TEST(PagedRecordStore, ReadPinsOnlySealedPages) {
  std::string path = TempPath("prs_sealed_pins.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  std::string spill;
  uint64_t a = store->Append("on the tail").value();
  // 1,000 bytes chain over five 240-byte overflow pages; the stub stays on
  // the tail page.
  uint64_t big = store->Append(std::string(1000, 'n')).value();

  EXPECT_EQ(store->Read(a, &spill).value().bytes(), "on the tail");
  EXPECT_EQ(Pins(store->cache_stats()), 0u) << "the tail page was pinned";
  EXPECT_EQ(store->Read(big, &spill).value().bytes(), std::string(1000, 'n'));
  EXPECT_EQ(Pins(store->cache_stats()), 5u);  // the sealed overflow pages

  // Commit writes the tail page to the file; it is still read from the
  // store's own buffer until it is sealed.
  ASSERT_TRUE(store->Commit().ok());
  EXPECT_EQ(store->Read(a, &spill).value().bytes(), "on the tail");
  EXPECT_EQ(Pins(store->cache_stats()), 5u);

  SealPageOf(store.get(), a);
  EXPECT_EQ(store->Read(a, &spill).value().bytes(), "on the tail");
  EXPECT_EQ(Pins(store->cache_stats()), 6u);
  EXPECT_EQ(store->cache_stats().pinned_pages, 0u);
  std::remove(path.c_str());
}

TEST(PagedRecordStore, AppendSucceedsWhileReadersPinEveryFrame) {
  // Appends never take a cache frame: a reader holding the only frame of a
  // one-frame cache cannot make them fail.
  std::string path = TempPath("prs_pinned_append.pages");
  StorageParams params = SmallStoreParams();
  params.cache_bytes = params.page_size;
  params.cache_shards = 1;
  auto store = PagedRecordStore::Create(path, params).value();
  ASSERT_EQ(store->cache()->num_frames(), 1u);

  std::string spill;
  uint64_t sealed = store->Append(std::string(200, 'a')).value();
  SealPageOf(store.get(), sealed);
  auto held = store->Read(sealed, &spill).value();  // pins the only frame
  ASSERT_EQ(store->cache_stats().pinned_pages, 1u);

  auto inline_id = store->Append("inline while pinned");
  ASSERT_TRUE(inline_id.ok()) << inline_id.status().ToString();
  // Still on the tail page, so it reads back without a frame.
  EXPECT_EQ(store->Read(inline_id.value(), &spill).value().bytes(),
            "inline while pinned");
  const std::string big(1000, 'c');
  auto chained_id = store->Append(big);
  ASSERT_TRUE(chained_id.ok()) << chained_id.status().ToString();
  EXPECT_EQ(held.bytes(), std::string(200, 'a'));

  // The chain's overflow pages are read through the frame the reader held.
  held = PagedRecordStore::RecordRef();
  EXPECT_EQ(store->Read(chained_id.value(), &spill).value().bytes(), big);
  EXPECT_EQ(store->Read(inline_id.value(), &spill).value().bytes(),
            "inline while pinned");
  EXPECT_EQ(store->cache_stats().pinned_pages, 0u);
  std::remove(path.c_str());
}

/// The bytes of record `i` in the concurrency test: every seventh record
/// chains over overflow pages, the rest are inline; the contents depend on
/// `i`, so a read that returned another record's bytes fails.
std::string RecordBytes(size_t i) {
  const size_t len = i % 7 == 3 ? 300 + (i * 37) % 700 : (i * 13) % 120;
  std::string bytes(len, '\0');
  for (size_t j = 0; j < len; ++j) {
    bytes[j] = static_cast<char>((i * 131 + j) & 0xFF);
  }
  return bytes;
}

TEST(PagedRecordStore, ConcurrentReadsDuringAppendsAndCommits) {
  // Three readers read random acked ids (on the tail page, on sealed pages,
  // chained over overflow pages) while one writer appends mixed inline and
  // chained records and commits every few dozen appends. Every read must
  // return exactly the appended bytes. scripts/check.sh runs this under
  // ASan and TSan.
  constexpr size_t kRecords = 600;
  constexpr size_t kCommitEvery = 40;
  std::string path = TempPath("prs_concurrent.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();

  std::vector<uint64_t> ids(kRecords);
  std::atomic<size_t> acked{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + t);
      std::string spill;
      while (!done.load(std::memory_order_acquire)) {
        const size_t n = acked.load(std::memory_order_acquire);
        if (n == 0) continue;
        // Half the reads go to the newest records, on or near the tail.
        const size_t i = rng.Bernoulli(0.5)
                             ? n - 1 - rng.Index(std::min<size_t>(n, 8))
                             : rng.Index(n);
        auto ref = store->Read(ids[i], &spill);
        if (!ref.ok() || ref.value().bytes() != RecordBytes(i)) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  bool writer_ok = true;
  for (size_t i = 0; i < kRecords && writer_ok; ++i) {
    auto id = store->Append(RecordBytes(i));
    writer_ok = id.ok();
    if (!writer_ok) break;
    ids[i] = id.value();
    acked.store(i + 1, std::memory_order_release);
    if ((i + 1) % kCommitEvery == 0) writer_ok = store->Commit().ok();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  ASSERT_TRUE(writer_ok);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(bad_reads.load(), 0u) << "of " << reads.load() << " reads";
  std::string spill;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_EQ(store->Read(ids[i], &spill).value().bytes(), RecordBytes(i))
        << "record " << i;
  }
  EXPECT_EQ(store->cache_stats().pinned_pages, 0u);
  std::remove(path.c_str());
}

TEST(PagedRecordStore, ComputePageFileStatsAuditsOccupancy) {
  std::string path = TempPath("prs_stats.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  store->Append(std::string(50, 's')).value();
  store->Append(std::string(60, 's')).value();
  store->Append(std::string(1000, 'n')).value();  // 5 overflow pages
  ASSERT_TRUE(store->Commit().ok());

  PageFileStats stats = ComputePageFileStats(path).value();
  EXPECT_EQ(stats.page_size, 256u);
  EXPECT_EQ(stats.num_pages, 7u);
  EXPECT_EQ(stats.data_pages, 1u);  // the tail, written by Commit
  EXPECT_EQ(stats.overflow_pages, 5u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.record_bytes, 1110u);

  // The next record does not fit: the tail is sealed, a second data page
  // starts, and the next Commit writes it.
  store->Append(std::string(200, 'x')).value();
  ASSERT_TRUE(store->Commit().ok());
  stats = ComputePageFileStats(path).value();
  EXPECT_EQ(stats.num_pages, 8u);
  EXPECT_EQ(stats.data_pages, 2u);
  EXPECT_EQ(stats.overflow_pages, 5u);
  EXPECT_EQ(stats.records, 4u);
  EXPECT_EQ(stats.record_bytes, 1310u);
  std::remove(path.c_str());
}

TEST(PagedRecordStore, StatsDetectCorruptPage) {
  std::string path = TempPath("prs_stats_corrupt.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  store->Append(std::string(100, 'q')).value();
  ASSERT_TRUE(store->Commit().ok());
  store.reset();

  CorruptByteAt(path, 256 + 30);
  auto stats = ComputePageFileStats(path);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), api::StatusCode::kCorruption);
  std::remove(path.c_str());
}

/// Flips a byte in every page of the committed store at `path` in turn:
/// each flip must make the audit report kCorruption.
void ExpectEveryPageFlipIsCorruption(const std::string& path,
                                     uint64_t pages) {
  PageFileStats clean = ComputePageFileStats(path).value();
  ASSERT_EQ(clean.num_pages, pages);
  ASSERT_GE(clean.data_pages, 1u);
  ASSERT_GE(clean.overflow_pages, 4u);
  for (uint64_t page = 0; page < pages; ++page) {
    CorruptByteAt(path, page * 256 + 20);
    auto stats = ComputePageFileStats(path);
    ASSERT_FALSE(stats.ok()) << "page " << page << " flip went unnoticed";
    EXPECT_EQ(stats.status().code(), api::StatusCode::kCorruption);
    CorruptByteAt(path, page * 256 + 20);  // flip it back
  }
  EXPECT_TRUE(ComputePageFileStats(path).ok());
}

TEST(PagedRecordStore, EveryPageFlipIsCorruption) {
  // A byte flipped in any page — header, data or overflow chain — is
  // caught by that page's CRC, and the audit reports it as kCorruption
  // instead of misreading the file.
  std::string path = TempPath("prs_every_page.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  store->Append(std::string(200, 'a')).value();
  store->Append(std::string(1000, 'n')).value();
  // Mid-stream: the tail page is on disk only because Commit wrote it.
  ASSERT_TRUE(store->Commit().ok());
  {
    SCOPED_TRACE("mid-stream");
    ExpectEveryPageFlipIsCorruption(path, store->file().num_pages());
  }

  store->Append(std::string(200, 'b')).value();  // seals the first tail
  store->Append(std::string(100, 'c')).value();  // seals the second
  ASSERT_TRUE(store->Commit().ok());
  {
    SCOPED_TRACE("end");
    ExpectEveryPageFlipIsCorruption(path, store->file().num_pages());
  }
  std::string spill;
  EXPECT_EQ(store->Read(store->Append("after").value(), &spill)
                .value()
                .bytes(),
            "after");
  store.reset();
  std::remove(path.c_str());
}

// -------------------------------------------- paged index ≡ in-RAM index

/// One processed synthetic segment shared by the equivalence cases.
const api::SegmentResult& LabSegment() {
  static const api::SegmentResult* segment = [] {
    video::SceneParams sp;
    sp.num_objects = 5;
    sp.spawn_gap = 20;
    sp.noise_stddev = 0.0;
    api::PipelineParams pp;
    pp.segmenter.use_mean_shift = false;
    return new api::SegmentResult(
        api::ProcessScene(video::MakeLabScene(sp), pp));
  }();
  return *segment;
}

void ExpectSameHits(const std::vector<api::VideoDatabase::QueryHit>& want,
                    const std::vector<api::VideoDatabase::QueryHit>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].og_id, got[i].og_id);
    EXPECT_EQ(want[i].video, got[i].video);
    // Bit-identical, not approximately equal: the paged path re-decodes the
    // exact doubles the in-RAM path holds.
    EXPECT_EQ(want[i].distance, got[i].distance);
  }
}

TEST(PagedIndex, QueriesBitIdenticalToInRamAcrossCacheSizes) {
  const api::SegmentResult& segment = LabSegment();
  index::StrgIndexParams ip;
  ip.num_clusters = 2;

  api::VideoDatabase ram(ip);
  ram.AddVideo("lab", segment);
  ASSERT_GE(ram.NumObjectGraphs(), 3u);
  const core::Og& probe = segment.decomposition.object_graphs[0];
  dist::Sequence probe_seq = dist::OgToSequence(probe, segment.Scaling());
  auto want_knn = ram.Query(api::QuerySpec::Similar(probe_seq, 5));
  ASSERT_FALSE(want_knn.empty());
  double radius = want_knn.back().distance + 1e-6;
  auto want_range = ram.Query(api::QuerySpec::WithinRadius(probe_seq, radius));
  ASSERT_FALSE(want_range.empty());

  struct Budget {
    const char* name;
    uint64_t cache_bytes;
    size_t shards;
  };
  // Tiny = one frame (every fetch misses), medium = a few frames (real
  // eviction traffic), infinite = everything stays resident.
  const Budget budgets[] = {{"tiny", 256, 1},
                            {"medium", 4 * 256, 2},
                            {"infinite", 8ull << 20, 4}};
  for (const Budget& budget : budgets) {
    SCOPED_TRACE(budget.name);
    StorageParams params = SmallStoreParams();
    params.cache_bytes = budget.cache_bytes;
    params.cache_shards = budget.shards;
    std::string path = TempPath(std::string("prs_eq_") + budget.name +
                                ".pages");
    auto store = PagedRecordStore::Create(path, params).value();

    index::StrgIndexParams paged_params = ip;
    paged_params.paged_store = store.get();
    api::VideoDatabase paged(paged_params);
    paged.AddVideo("lab", segment);

    ExpectSameHits(want_knn,
                   paged.Query(api::QuerySpec::Similar(probe_seq, 5)));
    ExpectSameHits(
        want_range,
        paged.Query(api::QuerySpec::WithinRadius(probe_seq, radius)));
    // The paged path actually ran through the cache.
    BufferCacheStats cs = store->cache_stats();
    EXPECT_GT(cs.hits + cs.misses, 0u);
    EXPECT_EQ(cs.pinned_pages, 0u);
    std::remove(path.c_str());
  }
}

TEST(PagedIndex, TinyCacheStaysWithinResidentBudget) {
  const api::SegmentResult& segment = LabSegment();
  StorageParams params = SmallStoreParams();
  params.cache_bytes = 2 * 256;
  params.cache_shards = 1;
  std::string path = TempPath("prs_budget.pages");
  auto store = PagedRecordStore::Create(path, params).value();

  index::StrgIndexParams ip;
  ip.num_clusters = 2;
  ip.paged_store = store.get();
  api::VideoDatabase db(ip);
  db.AddVideo("lab", segment);

  // The backing file far exceeds the cache budget, yet resident memory is
  // exactly the configured frame pool — the out-of-core contract.
  EXPECT_GT(store->file().num_pages() * 256, params.cache_bytes);
  EXPECT_EQ(store->cache()->resident_bytes(), 2 * 256u);
  const core::Og& probe = segment.decomposition.object_graphs[0];
  EXPECT_FALSE(db.Query(api::QuerySpec::Similar(
                            dist::OgToSequence(probe, segment.Scaling()), 3))
                   .empty());
  EXPECT_GT(store->cache_stats().evictions, 0u);
  std::remove(path.c_str());
}

/// Bitwise equality of two search results: every hit (id and distance
/// bits) and all three cost counters.
void ExpectSameResult(const index::KnnResult& want,
                      const index::KnnResult& got) {
  ASSERT_EQ(want.hits.size(), got.hits.size());
  for (size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(want.hits[i].og_id, got.hits[i].og_id) << "hit " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.hits[i].distance),
              std::bit_cast<uint64_t>(got.hits[i].distance))
        << "hit " << i;
  }
  EXPECT_EQ(want.distance_computations, got.distance_computations);
  EXPECT_EQ(want.lb_prunes, got.lb_prunes);
  EXPECT_EQ(want.early_abandons, got.early_abandons);
}

// Filter and refine: a paged leaf entry keeps its lower-bound summary
// resident, so the cascade runs before the fetch and a candidate it prunes
// is never read. With 4 KiB pages every leaf record is inline, so one pin is
// one record read, and a query may pin at most one record per DP it runs.
TEST(PagedIndex, CascadePrunedCandidatesAreNeverFetched) {
  synth::SynthParams sp;
  sp.items_per_cluster = 4;
  const synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);
  const dist::FeatureScaling scaling = synth::SynthScaling();
  const std::vector<dist::Sequence> probes = ds.TrueSequences(scaling);
  ASSERT_EQ(probes.size(), 48u);

  StorageParams params;
  params.paged = true;
  params.page_size = 4096;
  params.cache_bytes = 16 * 4096;
  params.cache_shards = 2;
  std::string path = TempPath("prs_cascade_filter.pages");
  auto store = PagedRecordStore::Create(path, params).value();

  index::StrgIndexParams ip;
  ip.num_clusters = 8;
  index::StrgIndex ram(ip);
  ram.AddSegment(core::BackgroundGraph{}, ds.Sequences(scaling));
  ip.paged_store = store.get();
  index::StrgIndex paged(ip);
  paged.AddSegment(core::BackgroundGraph{}, ds.Sequences(scaling));

  size_t lb_prunes = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    const index::KnnResult want_knn = ram.Knn(probes[i], 10);
    ASSERT_EQ(want_knn.hits.size(), 10u);
    uint64_t before = Pins(store->cache_stats());
    const index::KnnResult got_knn = paged.Knn(probes[i], 10);
    EXPECT_LE(Pins(store->cache_stats()) - before,
              got_knn.distance_computations)
        << "kNN read a candidate the cascade pruned";
    ExpectSameResult(want_knn, got_knn);

    const double radius = want_knn.hits.back().distance;
    const index::KnnResult want_range = ram.RangeSearch(probes[i], radius);
    before = Pins(store->cache_stats());
    const index::KnnResult got_range = paged.RangeSearch(probes[i], radius);
    EXPECT_LE(Pins(store->cache_stats()) - before,
              got_range.distance_computations)
        << "range search read a candidate the cascade pruned";
    ExpectSameResult(want_range, got_range);
    lb_prunes += got_knn.lb_prunes + got_range.lb_prunes;
  }
  EXPECT_GT(lb_prunes, 0u);  // the filter had candidates to prune
  EXPECT_EQ(store->cache_stats().pinned_pages, 0u);
  store.reset();
  std::remove(path.c_str());
}

/// Heap allocations made while `fn()` runs; the counter is process-wide, so
/// the caller must run no other thread meanwhile.
template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  fn();
  g_count_allocs.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

// With the whole store resident, a paged query differs from its in-RAM
// twin only by its fetches: a cache pin, a decode and a re-flatten per
// candidate. Each fetch reuses the thread's spill buffer and decode scratch
// and relinks its LRU node, so the paged query allocates no more than the
// twin (plus a small constant), however many records it reads. 4 KiB pages
// hold every record inline; 256-byte pages chain every record over
// overflow pages, which the store assembles into the reused spill buffer.
void ExpectCacheHitFetchesDoNotAllocate(size_t page_size) {
  synth::SynthParams sp;
  sp.items_per_cluster = 4;
  const synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);
  const dist::FeatureScaling scaling = synth::SynthScaling();
  const std::vector<dist::Sequence> probes = ds.TrueSequences(scaling);

  StorageParams params;
  params.paged = true;
  params.page_size = page_size;
  params.cache_bytes = 1 << 20;
  params.cache_shards = 2;
  std::string path = TempPath("prs_cache_hit_allocs.pages");
  auto store = PagedRecordStore::Create(path, params).value();

  index::StrgIndexParams ip;
  ip.num_clusters = 8;
  index::StrgIndex ram(ip);
  ram.AddSegment(core::BackgroundGraph{}, ds.Sequences(scaling));
  ip.paged_store = store.get();
  index::StrgIndex paged(ip);
  paged.AddSegment(core::BackgroundGraph{}, ds.Sequences(scaling));
  ASSERT_LE(store->file().num_pages() * params.page_size, params.cache_bytes)
      << "the cache must hold the whole store";

  // Warm pass: every record the queries read is resident, and both indexes'
  // per-thread scratch has grown to its high-water mark.
  for (const dist::Sequence& probe : probes) {
    const double radius = ram.Knn(probe, 10).hits.back().distance;
    paged.Knn(probe, 10);
    ram.RangeSearch(probe, radius);
    paged.RangeSearch(probe, radius);
  }

  const BufferCacheStats start = store->cache_stats();
  for (size_t i = 0; i < probes.size(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    index::KnnResult want_knn, got_knn, want_range, got_range;
    const uint64_t ram_knn =
        AllocationsDuring([&] { want_knn = ram.Knn(probes[i], 10); });
    const uint64_t paged_knn =
        AllocationsDuring([&] { got_knn = paged.Knn(probes[i], 10); });
    ExpectSameResult(want_knn, got_knn);
    EXPECT_LE(paged_knn, ram_knn + 4) << "kNN fetches allocated";

    const double radius = want_knn.hits.back().distance;
    const uint64_t ram_range = AllocationsDuring(
        [&] { want_range = ram.RangeSearch(probes[i], radius); });
    const uint64_t paged_range = AllocationsDuring(
        [&] { got_range = paged.RangeSearch(probes[i], radius); });
    ExpectSameResult(want_range, got_range);
    EXPECT_LE(paged_range, ram_range + 4) << "range fetches allocated";
  }
  const BufferCacheStats end = store->cache_stats();
  EXPECT_EQ(end.misses, start.misses) << "a measured read missed the cache";
  // Not vacuous: the measured queries really read records through the cache.
  const double pins_per_query = static_cast<double>(Pins(end) - Pins(start)) /
                                static_cast<double>(2 * probes.size());
  EXPECT_GE(pins_per_query, 50.0);
  EXPECT_EQ(end.pinned_pages, 0u);
  store.reset();
  std::remove(path.c_str());
}

TEST(PagedIndex, CacheHitFetchesDoNotAllocate) {
  for (size_t page_size : {size_t{4096}, size_t{256}}) {
    SCOPED_TRACE("page_size " + std::to_string(page_size));
    ExpectCacheHitFetchesDoNotAllocate(page_size);
  }
}

}  // namespace
}  // namespace strg::storage
