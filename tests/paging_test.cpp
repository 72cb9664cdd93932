// ctest-labels: paging
//
// Out-of-core storage engine: page file format (CRC, allocator, free list),
// buffer cache (LRU, pins, copy-on-write, write-back, overload), the paged
// record layer (inline + overflow-chained records, delete, reopen, stats),
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

  uint32_t p = file->Allocate().value();
  EXPECT_EQ(p, 1u);
  ASSERT_TRUE(file->WritePage(p, PageFile::kDataPage, 7, "paged bytes").ok());
  file->set_root(42);
  ASSERT_TRUE(file->Sync().ok());
  file.reset();

  auto back = PageFile::Open(path).value();
  EXPECT_EQ(back->page_size(), 256u);
  EXPECT_EQ(back->num_pages(), 2u);
  EXPECT_EQ(back->root(), 42u);
  PageFile::PageView view;
  ASSERT_TRUE(back->ReadPage(p, &view).ok());
  EXPECT_EQ(view.type, PageFile::kDataPage);
  EXPECT_EQ(view.next_page, 7u);
  EXPECT_EQ(view.payload, "paged bytes");
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

TEST(PageFile, FreeListReusesPages) {
  std::string path = TempPath("pf_freelist.pages");
  auto file = PageFile::Create(path, 128).value();
  uint32_t a = file->Allocate().value();
  uint32_t b = file->Allocate().value();
  ASSERT_TRUE(file->WritePage(a, PageFile::kDataPage, PageFile::kNoPage,
                              "a").ok());
  ASSERT_TRUE(file->WritePage(b, PageFile::kDataPage, PageFile::kNoPage,
                              "b").ok());
  EXPECT_EQ(file->free_count(), 0u);

  ASSERT_TRUE(file->Free(a).ok());
  EXPECT_EQ(file->free_count(), 1u);
  EXPECT_EQ(file->free_head(), a);
  // A freed page is written as kFreePage — readable, typed, CRC-valid.
  PageFile::PageView view;
  ASSERT_TRUE(file->ReadPage(a, &view).ok());
  EXPECT_EQ(view.type, PageFile::kFreePage);

  // The next allocation pops the free list instead of growing the file.
  uint64_t pages_before = file->num_pages();
  EXPECT_EQ(file->Allocate().value(), a);
  EXPECT_EQ(file->num_pages(), pages_before);
  EXPECT_EQ(file->free_count(), 0u);

  // Free-list state survives reopen.
  ASSERT_TRUE(file->Free(b).ok());
  ASSERT_TRUE(file->Sync().ok());
  file.reset();
  auto back = PageFile::Open(path).value();
  EXPECT_EQ(back->free_count(), 1u);
  EXPECT_EQ(back->Allocate().value(), b);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- BufferCache

/// A 2-frame single-shard cache over a file with `pages` pre-written pages
/// (page i holds payload "page-<i>").
struct SmallCacheFixture {
  explicit SmallCacheFixture(const std::string& name, int pages,
                             uint64_t frames = 2) {
    path = TempPath(name);
    file = PageFile::Create(path, 128).value();
    for (int i = 1; i <= pages; ++i) {
      uint32_t p = file->Allocate().value();
      EXPECT_TRUE(file->WritePage(p, PageFile::kDataPage, PageFile::kNoPage,
                                  "page-" + std::to_string(i)).ok());
    }
    cache = std::make_unique<BufferCache>(file.get(), frames * 128, 1);
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

TEST(BufferCache, WriteBackPersistsDirtyFrames) {
  SmallCacheFixture fx("bc_writeback.pages", 1);
  ASSERT_TRUE(fx.cache->Write(1, PageFile::kDataPage, PageFile::kNoPage,
                              "dirty bytes").ok());
  // The write lives in the cache until flushed.
  ASSERT_TRUE(fx.cache->FlushAll().ok());
  EXPECT_EQ(fx.cache->stats().write_backs, 1u);
  PageFile::PageView view;
  ASSERT_TRUE(fx.file->ReadPage(1, &view).ok());
  EXPECT_EQ(view.payload, "dirty bytes");
}

TEST(BufferCache, CopyOnWriteKeepsPinnedViewImmutable) {
  SmallCacheFixture fx("bc_cow.pages", 2);
  auto old_ref = fx.cache->Pin(1).value();
  ASSERT_EQ(old_ref.payload(), "page-1");

  // Writing a pinned page must not mutate the live reader's view: the
  // bytes go to a fresh frame and the page is remapped.
  ASSERT_TRUE(fx.cache->Write(1, PageFile::kDataPage, PageFile::kNoPage,
                              "version-2").ok());
  EXPECT_EQ(old_ref.payload(), "page-1");
  auto new_ref = fx.cache->Pin(1).value();
  EXPECT_EQ(new_ref.payload(), "version-2");

  // The orphaned frame returns to the pool when its last pin drops; the
  // shard then has room for a third resident page again.
  old_ref = BufferCache::PageRef();
  new_ref = BufferCache::PageRef();
  EXPECT_TRUE(fx.cache->Pin(2).ok());
  EXPECT_EQ(fx.cache->stats().pinned_pages, 0u);
}

TEST(BufferCache, InvalidateDropsWithoutWriteBack) {
  SmallCacheFixture fx("bc_invalidate.pages", 2);
  ASSERT_TRUE(fx.cache->Write(1, PageFile::kDataPage, PageFile::kNoPage,
                              "never-persisted").ok());
  fx.cache->Invalidate(1);
  // The dirty bytes were dropped, not written back: the next pin reads the
  // original disk contents.
  auto ref = fx.cache->Pin(1).value();
  EXPECT_EQ(ref.payload(), "page-1");
  EXPECT_EQ(fx.cache->stats().write_backs, 0u);
}

TEST(BufferCache, ConcurrentPinUnpinWithWriterIsConsistent) {
  // Readers hammer pins while a writer rewrites pages through the cache.
  // Every observed payload must be one complete version — homogeneous
  // repeated version characters — never a torn mix. Run under TSan/ASan by
  // scripts/check.sh.
  constexpr int kPages = 6;
  constexpr int kVersions = 40;
  constexpr size_t kLen = 64;
  SmallCacheFixture fx("bc_threads.pages", kPages, /*frames=*/4);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&fx, &stop, &failed, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        uint32_t page = 1 + static_cast<uint32_t>(rng.Uniform(0, kPages - 1));
        auto ref = fx.cache->Pin(page);
        if (!ref.ok()) continue;  // all frames transiently pinned
        std::string_view payload = ref.value().payload();
        // Seed content ("page-N") predates the writer; versions written by
        // the writer are kLen homogeneous bytes — a mixed view is a torn
        // read through the pin protocol.
        if (payload.size() != kLen) continue;
        for (char c : payload) {
          if (c != payload[0]) failed.store(true);
        }
      }
    });
  }

  for (int v = 0; v < kVersions; ++v) {
    std::string payload(kLen, static_cast<char>('a' + (v % 26)));
    for (uint32_t page = 1; page <= kPages; ++page) {
      ASSERT_TRUE(fx.cache->Write(page, PageFile::kDataPage,
                                  PageFile::kNoPage, payload).ok());
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(fx.cache->stats().pinned_pages, 0u);
  ASSERT_TRUE(fx.cache->FlushAll().ok());
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

TEST(PagedRecordStore, InlineRoundTripPreservesBytesAndType) {
  std::string path = TempPath("prs_inline.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  uint64_t a = store->Append(kRecOgSequence, "first record").value();
  uint64_t b = store->Append(kRecBackground, "second record").value();
  EXPECT_NE(a, b);

  auto ra = store->Read(a).value();
  EXPECT_EQ(ra.bytes(), "first record");
  EXPECT_EQ(ra.record_type(), kRecOgSequence);
  auto rb = store->Read(b).value();
  EXPECT_EQ(rb.bytes(), "second record");
  EXPECT_EQ(rb.record_type(), kRecBackground);
  std::remove(path.c_str());
}

TEST(PagedRecordStore, OverflowChainRoundTrip) {
  std::string path = TempPath("prs_overflow.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  // ~10 pages worth of payload: forces a chain through overflow pages.
  Rng rng(7);
  std::string big(2500, '\0');
  for (char& c : big) c = static_cast<char>(rng.Uniform(0, 255));
  uint64_t id = store->Append(kRecIndexNode, big).value();
  uint64_t small_id = store->Append(kRecOgSequence, "tiny").value();

  auto ref = store->Read(id).value();
  EXPECT_EQ(ref.bytes(), big);
  EXPECT_EQ(ref.record_type(), kRecIndexNode);
  EXPECT_EQ(store->Read(small_id).value().bytes(), "tiny");

  ASSERT_TRUE(store->Commit().ok());
  PageFileStats stats = ComputePageFileStats(path).value();
  EXPECT_GE(stats.overflow_pages, 10u);
  std::remove(path.c_str());
}

TEST(PagedRecordStore, DeleteFreesRecordAndOverflowChain) {
  std::string path = TempPath("prs_delete.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  std::string big(2000, 'x');
  uint64_t chained = store->Append(kRecIndexNode, big).value();
  uint64_t keeper = store->Append(kRecOgSequence, "keep me").value();

  ASSERT_TRUE(store->Delete(chained).ok());
  auto gone = store->Read(chained);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), api::StatusCode::kNotFound);
  // The overflow chain went back to the allocator.
  EXPECT_GE(store->file().free_count(), 8u);
  // Unrelated records are untouched, and the freed pages are reusable.
  EXPECT_EQ(store->Read(keeper).value().bytes(), "keep me");
  uint64_t pages_before = store->file().num_pages();
  uint64_t again = store->Append(kRecIndexNode, big).value();
  EXPECT_EQ(store->file().num_pages(), pages_before);
  EXPECT_EQ(store->Read(again).value().bytes(), big);
  std::remove(path.c_str());
}

TEST(PagedRecordStore, DeleteReturnsFullyDeadPageToFreeList) {
  std::string path = TempPath("prs_deadpage.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  // Each 200-byte record nearly fills a 240-byte page payload, so the two
  // records land on different pages and the first page is non-tail.
  uint64_t a = store->Append(kRecOgSequence, std::string(200, 'a')).value();
  uint64_t b = store->Append(kRecOgSequence, std::string(200, 'b')).value();
  EXPECT_EQ(store->file().free_count(), 0u);

  ASSERT_TRUE(store->Delete(a).ok());
  EXPECT_EQ(store->file().free_count(), 1u);
  EXPECT_EQ(store->Read(b).value().bytes(), std::string(200, 'b'));
  std::remove(path.c_str());
}

TEST(PagedRecordStore, ReopenSealsTailAndKeepsRecordIds) {
  std::string path = TempPath("prs_reopen.pages");
  StorageParams params = SmallStoreParams();
  auto store = PagedRecordStore::Create(path, params).value();
  uint64_t a = store->Append(kRecOgSequence, "before crash").value();
  store->SetRoot(a);
  ASSERT_TRUE(store->Commit().ok());
  store.reset();

  auto back = PagedRecordStore::Open(path, params).value();
  EXPECT_EQ(back->Root(), a);
  EXPECT_EQ(back->Read(a).value().bytes(), "before crash");
  // The old tail is sealed: a new append starts a fresh page, so a torn
  // pre-crash tail can never be extended.
  uint64_t b = back->Append(kRecOgSequence, "after reopen").value();
  EXPECT_NE(b >> 16, a >> 16);
  EXPECT_EQ(back->Read(a).value().bytes(), "before crash");
  EXPECT_EQ(back->Read(b).value().bytes(), "after reopen");
  std::remove(path.c_str());
}

TEST(PagedRecordStore, ReadOfBogusIdIsNotFound) {
  std::string path = TempPath("prs_bogus.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  ASSERT_TRUE(store->Append(kRecOgSequence, "only record").ok());
  auto missing = store->Read((1ull << 16) | 55);  // page 1, nonexistent slot
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), api::StatusCode::kNotFound);
  EXPECT_FALSE(store->Read(PagedRecordStore::kNoRecord).ok());
  std::remove(path.c_str());
}

TEST(PagedRecordStore, ComputePageFileStatsAuditsOccupancy) {
  std::string path = TempPath("prs_stats.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  store->Append(kRecOgSequence, std::string(50, 's')).value();
  store->Append(kRecOgSequence, std::string(60, 's')).value();
  uint64_t dead = store->Append(kRecBackground, std::string(40, 'b')).value();
  uint64_t big = store->Append(kRecIndexNode, std::string(1000, 'n')).value();
  ASSERT_TRUE(store->Delete(dead).ok());
  store->SetRoot(big);
  ASSERT_TRUE(store->Commit().ok());

  PageFileStats stats = ComputePageFileStats(path).value();
  EXPECT_EQ(stats.page_size, 256u);
  EXPECT_EQ(stats.root, big);
  EXPECT_EQ(stats.free_list_len, stats.free_count);
  EXPECT_EQ(stats.dead_slots, 1u);
  EXPECT_GE(stats.data_pages, 1u);
  EXPECT_GE(stats.overflow_pages, 4u);

  uint64_t og_live = 0, og_bytes = 0, node_bytes = 0, bg_live = 0;
  for (const auto& t : stats.by_type) {
    if (t.record_type == kRecOgSequence) {
      og_live = t.live_records;
      og_bytes = t.live_bytes;
    }
    if (t.record_type == kRecIndexNode) node_bytes = t.live_bytes;
    if (t.record_type == kRecBackground) bg_live = t.live_records;
  }
  EXPECT_EQ(og_live, 2u);
  EXPECT_EQ(og_bytes, 110u);
  EXPECT_EQ(node_bytes, 1000u);
  EXPECT_EQ(bg_live, 0u);  // the deleted record no longer counts
  std::remove(path.c_str());
}

TEST(PagedRecordStore, StatsDetectCorruptPage) {
  std::string path = TempPath("prs_stats_corrupt.pages");
  auto store = PagedRecordStore::Create(path, SmallStoreParams()).value();
  store->Append(kRecOgSequence, std::string(100, 'q')).value();
  ASSERT_TRUE(store->Commit().ok());
  store.reset();

  CorruptByteAt(path, 256 + 30);
  auto stats = ComputePageFileStats(path);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), api::StatusCode::kCorruption);
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
  auto want_knn = ram.FindSimilar(probe, 5, segment.Scaling());
  ASSERT_FALSE(want_knn.empty());
  double radius = want_knn.back().distance + 1e-6;
  auto want_range = ram.FindWithinRadius(probe_seq, radius);
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

    ExpectSameHits(want_knn, paged.FindSimilar(probe, 5, segment.Scaling()));
    ExpectSameHits(want_range, paged.FindWithinRadius(probe_seq, radius));
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
  EXPECT_FALSE(db.FindSimilar(probe, 3, segment.Scaling()).empty());
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

uint64_t Pins(const BufferCacheStats& s) { return s.hits + s.misses; }

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
// candidate. Each fetch reuses the thread's decode scratch and relinks its
// LRU node, so the paged query allocates no more than the twin (plus a
// small constant), however many records it reads.
TEST(PagedIndex, CacheHitFetchesDoNotAllocate) {
  synth::SynthParams sp;
  sp.items_per_cluster = 4;
  const synth::SynthDataset ds = synth::GenerateSyntheticOgs(sp);
  const dist::FeatureScaling scaling = synth::SynthScaling();
  const std::vector<dist::Sequence> probes = ds.TrueSequences(scaling);

  StorageParams params;
  params.paged = true;
  params.page_size = 4096;
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

}  // namespace
}  // namespace strg::storage
