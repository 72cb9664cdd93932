#ifndef STRG_STORAGE_PAGER_PAGED_RECORD_STORE_H_
#define STRG_STORAGE_PAGER_PAGED_RECORD_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"
#include "storage/pager/buffer_cache.h"
#include "storage/pager/page_file.h"
#include "storage/pager/storage_params.h"
#include "util/sync.h"

namespace strg::storage {

/// Tags identifying what a stored record holds; written into each slot
/// header so a page file can be audited (strgtool stat) without its owner.
/// The index's leaf entries are the only records the engine stores; the
/// catalog is a file of its own (storage/catalog.h). Values 1-3 tagged
/// catalog records in older files and stay unassigned.
enum RecordType : uint8_t {
  kRecIndexNode = 4,  ///< an index leaf-entry record (OG distance sequence)
};

/// Record layer over PageFile + BufferCache: append a byte record, get a
/// stable 64-bit id back, read it later with a pin-style zero-copy ref.
///
/// Record id packing: (page_id << 16) | slot_index. Slots live inside data
/// pages as a walk-forward sequence of
///
///     [u8 record_type][u8 flags][u32 len][len bytes]
///
/// entries. A record whose bytes fit in one page is stored inline
/// (flags=kInline). A larger record stores a 12-byte chain stub instead
/// (flags=kChained: u32 overflow head page + u64 total length) and its bytes
/// fill a chain of overflow pages linked through the page-header next_page
/// field. Deleted slots stay in place flagged kDead (ids are never reused
/// within a page); a fully dead non-tail page is returned to the free list.
///
/// Concurrency: Append/Delete/Commit/SetRoot serialize on the store mutex.
/// Read is safe from any thread concurrently with Append — the tail page a
/// writer is extending reaches readers only through BufferCache::Write,
/// whose copy-on-write frames keep every pinned view immutable. Delete is
/// NOT safe concurrently with a reader of the *same* record (the engine
/// deletes only records already unreachable from any live generation).
class PagedRecordStore {
 public:
  static constexpr uint64_t kNoRecord = ~0ull;

  /// A read record. Inline records alias the pinned page frame (zero copy:
  /// the bytes stay valid while this ref lives and pin the frame resident);
  /// chained records are assembled into an owned buffer.
  class RecordRef {
   public:
    std::string_view bytes() const {
      return pin_.valid() ? pin_.payload().substr(offset_, len_)
                          : std::string_view(owned_);
    }
    uint8_t record_type() const { return type_; }

   private:
    friend class PagedRecordStore;
    BufferCache::PageRef pin_;
    std::string owned_;
    size_t offset_ = 0;
    size_t len_ = 0;
    uint8_t type_ = 0;
  };

  /// Creates a fresh store (truncating any existing file at `path`).
  static api::StatusOr<std::unique_ptr<PagedRecordStore>> Create(
      const std::string& path, const StorageParams& params);

  /// Opens an existing store. The old tail page is sealed: the next Append
  /// starts a fresh page (its slack is the cost of not trusting a tail that
  /// may have been mid-append at crash time).
  static api::StatusOr<std::unique_ptr<PagedRecordStore>> Open(
      const std::string& path, const StorageParams& params);

  PagedRecordStore(const PagedRecordStore&) = delete;
  PagedRecordStore& operator=(const PagedRecordStore&) = delete;

  /// Appends a record, returning its id. Durable only after Commit().
  api::StatusOr<uint64_t> Append(uint8_t record_type, std::string_view bytes)
      STRG_EXCLUDES(mu_);

  /// Reads a record by id (kNotFound for dead/never-written slots). Safe
  /// concurrently with Append; see the class comment for the Delete caveat.
  api::StatusOr<RecordRef> Read(uint64_t record_id);

  /// Marks the record dead and frees its overflow chain (and its whole page
  /// once every slot on it is dead).
  api::Status Delete(uint64_t record_id) STRG_EXCLUDES(mu_);

  /// Flushes every dirty cached page and fsyncs the file (header included):
  /// everything appended so far is on stable storage.
  api::Status Commit() STRG_EXCLUDES(mu_);

  /// Caller-owned root record id, persisted in the page-file header at
  /// Commit(). kNoRecord when unset.
  void SetRoot(uint64_t record_id) STRG_EXCLUDES(mu_);
  uint64_t Root() const STRG_EXCLUDES(mu_);

  BufferCacheStats cache_stats() const { return cache_->stats(); }
  BufferCache* cache() { return cache_.get(); }
  const PageFile& file() const { return *file_; }

 private:
  PagedRecordStore() = default;

  static api::StatusOr<std::unique_ptr<PagedRecordStore>> Wrap(
      api::StatusOr<std::unique_ptr<PageFile>> file,
      const StorageParams& params);

  /// Starts a fresh tail data page.
  api::Status RollTailLocked() STRG_REQUIRES(mu_);
  /// Writes `bytes` into a freshly allocated overflow chain; returns its
  /// head page id.
  api::StatusOr<uint32_t> WriteOverflowChainLocked(std::string_view bytes)
      STRG_REQUIRES(mu_);
  api::Status FreeOverflowChainLocked(uint32_t head) STRG_REQUIRES(mu_);

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferCache> cache_;

  Mutex mu_{LockRank::kRecordStore};
  /// Shadow of the tail data page being appended to. Appends extend this
  /// buffer and write it through the cache, so no append ever needs to pin
  /// (and the COW frame logic keeps concurrent readers safe).
  std::string tail_buf_ STRG_GUARDED_BY(mu_);
  uint32_t tail_page_ STRG_GUARDED_BY(mu_) = PageFile::kNoPage;
  uint32_t tail_slots_ STRG_GUARDED_BY(mu_) = 0;
};

/// Offline audit of a page file (strgtool stat): header fields, page-type
/// counts, free-list length, and live/dead occupancy per record type.
struct PageFileStats {
  size_t page_size = 0;
  uint64_t num_pages = 0;
  uint64_t free_count = 0;     ///< header's free-list length claim
  uint64_t free_list_len = 0;  ///< length found by walking the list
  uint64_t root = PageFile::kNoRoot;
  uint64_t data_pages = 0;
  uint64_t overflow_pages = 0;
  uint64_t free_pages = 0;

  struct TypeOccupancy {
    uint8_t record_type = 0;
    uint64_t live_records = 0;
    uint64_t live_bytes = 0;  ///< payload bytes, overflow included
  };
  std::vector<TypeOccupancy> by_type;
  uint64_t dead_slots = 0;
};

/// Opens `path` read-only and scans every page. kCorruption surfaces the
/// first CRC-invalid page encountered.
api::StatusOr<PageFileStats> ComputePageFileStats(const std::string& path);

}  // namespace strg::storage

#endif  // STRG_STORAGE_PAGER_PAGED_RECORD_STORE_H_
