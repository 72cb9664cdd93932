#ifndef STRG_STORAGE_PAGER_PAGED_RECORD_STORE_H_
#define STRG_STORAGE_PAGER_PAGED_RECORD_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "api/status.h"
#include "storage/pager/buffer_cache.h"
#include "storage/pager/page_file.h"
#include "storage/pager/storage_params.h"
#include "util/sync.h"

namespace strg::storage {

/// Append-only record file over PageFile, read through a read-only
/// BufferCache: append a byte record, get a stable 64-bit id back, read it
/// later. The engine fills one from scratch at every open (the index's leaf
/// sequences); nothing is ever deleted or rewritten.
///
/// Record id packing: (page_id << 16) | slot_index. Slots live inside data
/// pages as a walk-forward sequence of
///
///     [u8 flags][u32 len][len bytes]
///
/// entries. A record whose bytes fit in one page is stored inline
/// (flags=kInline). A larger record stores a 12-byte chain stub instead
/// (flags=kChained: u32 overflow head page + u64 total length) and its bytes
/// fill a chain of overflow pages linked through the page-header next_page
/// field.
///
/// Writes: the data page being filled (the tail) lives in the store's own
/// buffer until the next record does not fit; it is then sealed — written
/// to the PageFile once — and a fresh tail starts. Overflow pages are
/// written when their record is appended. So a page reaches the file only
/// when its contents are final, or by Commit(), which writes the current
/// tail page and the header; its fsync runs outside the store mutex.
///
/// Reads: a record on the tail page is copied into the caller's `spill`
/// buffer under the store mutex. Every other page is sealed and never
/// changes, so Read pins it through the cache without the store mutex,
/// and no cache call ever runs under it. An inline record on a sealed page
/// is a zero-copy view of the pinned frame; a chained record is assembled
/// into `spill`, one pinned overflow page at a time. A reused `spill`
/// makes every read that hits the cache allocation-free.
///
/// Concurrency: Append and Commit serialize on the store mutex; Read is
/// safe from any thread concurrently with both, for ids Append returned.
class PagedRecordStore {
 public:
  static constexpr uint64_t kNoRecord = ~0ull;

  /// A read record: bytes() is valid while this ref lives and, when the
  /// record was copied, while the caller's `spill` buffer is untouched.
  class RecordRef {
   public:
    std::string_view bytes() const { return bytes_; }

   private:
    friend class PagedRecordStore;
    BufferCache::PageRef pin_;  ///< held for an inline record on a sealed page
    std::string_view bytes_;
  };

  /// Creates a fresh store (truncating any existing file at `path`).
  static api::StatusOr<std::unique_ptr<PagedRecordStore>> Create(
      const std::string& path, const StorageParams& params);

  PagedRecordStore(const PagedRecordStore&) = delete;
  PagedRecordStore& operator=(const PagedRecordStore&) = delete;

  /// Appends a record, returning its id. Durable only after Commit().
  api::StatusOr<uint64_t> Append(std::string_view bytes) STRG_EXCLUDES(mu_);

  /// Reads a record by id (kNotFound for a slot that was never written),
  /// copying it into `*spill` when it is on the tail page or chained.
  api::StatusOr<RecordRef> Read(uint64_t record_id, std::string* spill)
      STRG_EXCLUDES(mu_);

  /// Writes the tail page and the header, then fsyncs the file: everything
  /// appended so far is on stable storage.
  api::Status Commit() STRG_EXCLUDES(mu_);

  BufferCacheStats cache_stats() const { return cache_->stats(); }
  BufferCache* cache() { return cache_.get(); }
  const PageFile& file() const { return *file_; }

 private:
  PagedRecordStore() = default;

  /// Seals the current tail page (if any) and starts a fresh one.
  api::Status RollTailLocked() STRG_REQUIRES(mu_);
  /// Writes `bytes` into a freshly allocated overflow chain; returns its
  /// head page id.
  api::StatusOr<uint32_t> WriteOverflowChainLocked(std::string_view bytes)
      STRG_REQUIRES(mu_);
  /// Copies the chained record whose stub is `stub` into `*spill`.
  api::Status ReadChain(const char* stub, std::string* spill)
      STRG_EXCLUDES(mu_);

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferCache> cache_;

  Mutex mu_{LockRank::kRecordStore};
  /// Payload of the tail data page; never in the cache.
  std::string tail_buf_ STRG_GUARDED_BY(mu_);
  uint32_t tail_slots_ STRG_GUARDED_BY(mu_) = 0;
  /// The tail page's id. Written under mu_ only after the previous tail is
  /// sealed, so a reader that loads another id knows its page is sealed.
  std::atomic<uint32_t> tail_page_{PageFile::kNoPage};
};

/// Offline audit of a page file (strgtool stat): page counts by type and
/// the records the data pages hold.
struct PageFileStats {
  size_t page_size = 0;
  uint64_t num_pages = 0;  ///< header page included
  uint64_t data_pages = 0;
  uint64_t overflow_pages = 0;
  uint64_t records = 0;
  uint64_t record_bytes = 0;  ///< payload bytes, overflow included
};

/// Opens `path` read-only and scans every page. kCorruption surfaces the
/// first CRC-invalid page encountered.
api::StatusOr<PageFileStats> ComputePageFileStats(const std::string& path);

}  // namespace strg::storage

#endif  // STRG_STORAGE_PAGER_PAGED_RECORD_STORE_H_
