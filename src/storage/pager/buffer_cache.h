#ifndef STRG_STORAGE_PAGER_BUFFER_CACHE_H_
#define STRG_STORAGE_PAGER_BUFFER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/status.h"
#include "storage/pager/page_file.h"
#include "util/sync.h"

namespace strg::storage {

/// Scrape-style counters (all relaxed atomics; see ServerMetrics for the
/// memory-order policy they follow). `pinned_pages` is a gauge — the number
/// of outstanding pins right now; everything else is monotone.
struct BufferCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t pinned_pages = 0;

  double HitRate() const {
    return hits + misses == 0
               ? 0.0
               : static_cast<double>(hits) /
                     static_cast<double>(hits + misses);
  }
};

/// Sharded, read-only LRU buffer cache over page frames — the RAM half of
/// the out-of-core engine.
///
/// Read-only: the cache only ever holds sealed pages, whose bytes never
/// change once written (PagedRecordStore keeps its unsealed tail page out
/// of the cache), so a frame never goes stale, is never dirty, and
/// eviction simply drops it. Nothing writes through the cache.
///
/// Budget: the cache allocates max(shards, capacity_bytes / page_size)
/// fixed frames at construction and never grows, so resident page memory is
/// bounded by the configured budget no matter how large the backing file
/// gets. A page id hashes to one shard; each shard owns its frames, its
/// page->frame map, and its LRU list under one strg::Mutex.
///
/// Pin protocol: Pin() returns an RAII PageRef whose view stays valid until
/// it is destroyed; a pinned frame is never evicted. Eviction is strict LRU
/// over unpinned resident frames. When every frame of a shard is pinned,
/// Pin fails with kOverloaded — the cache budget is a hard bound, so the
/// caller sheds load instead of silently growing.
class BufferCache {
 public:
  BufferCache(const PageFile* file, uint64_t capacity_bytes, size_t shards);

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  class PageRef {
   public:
    PageRef() = default;
    ~PageRef() { Release(); }
    PageRef(PageRef&& other) noexcept { *this = std::move(other); }
    PageRef& operator=(PageRef&& other) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;

    /// The page's used payload bytes, valid while this ref lives. No copy:
    /// the view aliases the resident frame.
    std::string_view payload() const { return payload_; }
    uint8_t type() const { return type_; }
    uint32_t next_page() const { return next_page_; }

   private:
    friend class BufferCache;
    void Release();

    BufferCache* cache_ = nullptr;
    size_t shard_ = 0;
    size_t frame_ = 0;
    std::string_view payload_;
    uint8_t type_ = 0;
    uint32_t next_page_ = PageFile::kNoPage;
  };

  /// Pins `page_id` resident (reading it from the PageFile on a miss) and
  /// returns a stable view. The page must be sealed: its bytes may not
  /// change while the cache can hold it. kOverloaded when every frame in
  /// the page's shard is pinned (cache budget exhausted); I/O and CRC
  /// failures pass through from PageFile::ReadPage.
  api::StatusOr<PageRef> Pin(uint32_t page_id) STRG_EXCLUDES_DYNAMIC(Shard::mu);

  BufferCacheStats stats() const STRG_EXCLUDES_DYNAMIC(Shard::mu);

  size_t num_frames() const { return num_frames_; }
  /// Hard bound on resident page payload memory, by construction.
  size_t resident_bytes() const { return num_frames_ * file_->page_size(); }

 private:
  struct Frame {
    uint32_t page = PageFile::kNoPage;  ///< kNoPage: free slot
    uint32_t pins = 0;
    uint8_t type = 0;
    uint32_t next_page = PageFile::kNoPage;
    uint32_t payload_len = 0;
    std::string data;  ///< payload_capacity bytes, allocated once
  };

  struct Shard {
    Mutex mu{LockRank::kBufferCache};
    std::unordered_map<uint32_t, size_t> map STRG_GUARDED_BY(mu);
    std::vector<Frame> frames STRG_GUARDED_BY(mu);
    /// Free frame indices (never resident) + LRU list of resident frames,
    /// most-recent first.
    std::vector<size_t> free_frames STRG_GUARDED_BY(mu);
    std::list<size_t> lru STRG_GUARDED_BY(mu);
    std::unordered_map<size_t, std::list<size_t>::iterator> lru_pos
        STRG_GUARDED_BY(mu);
  };

  Shard& shard_of(uint32_t page_id) {
    return shards_[page_id % shards_.size()];
  }

  /// Claims a frame for a missed page: a free slot, else the LRU unpinned
  /// resident frame (unmapped). Returns the frame index or kOverloaded when
  /// all frames are pinned.
  api::StatusOr<size_t> ClaimFrameLocked(Shard& s) STRG_REQUIRES(s.mu);
  void TouchLocked(Shard& s, size_t frame) STRG_REQUIRES(s.mu);
  void UnlinkLruLocked(Shard& s, size_t frame) STRG_REQUIRES(s.mu);
  void Unpin(size_t shard, size_t frame);

  const PageFile* const file_;
  size_t num_frames_ = 0;
  std::vector<Shard> shards_;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> pinned_{0};
};

}  // namespace strg::storage

#endif  // STRG_STORAGE_PAGER_BUFFER_CACHE_H_
