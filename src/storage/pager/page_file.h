#ifndef STRG_STORAGE_PAGER_PAGE_FILE_H_
#define STRG_STORAGE_PAGER_PAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "api/status.h"

namespace strg::storage {

/// Fixed-size-page file — the on-disk half of the out-of-core engine.
///
/// File layout: page 0 is the header page; pages 1..num_pages-1 are data or
/// overflow pages. Every page carries the same 16-byte header:
///
///     [u32 crc32c over bytes 4..page_size)   -- torn-write detection
///     [u8  page type][u8 x 3 reserved]
///     [u32 next_page]    -- overflow chain link (kNoPage: none)
///     [u32 payload_len]  -- used payload bytes
///     [payload ... zero-padded to page_size]
///
/// The CRC covers type, link, length, and the whole padded payload, so a
/// page that was half-written at crash time (or hit by a bit flip) fails
/// validation as kCorruption instead of parsing garbage — the same contract
/// the WAL gives its records, via the same storage::Crc32c.
///
/// The header page's payload records magic, version, page size and page
/// count. Allocation only extends the file: Allocate hands out the next
/// page id and writes nothing, and the owner writes each page once its
/// contents are final.
///
/// Concurrency: ReadPage is safe from any thread (positional pread; the
/// bounds check reads an atomic page count), and so is Sync. Allocate,
/// WritePage and WriteHeader must be externally serialized by the owner
/// (PagedRecordStore holds them under its mutex), mirroring how WalWriter
/// is owned by one writer protocol.
class PageFile {
 public:
  static constexpr uint32_t kMagic = 0x53545047;  // "STPG"
  static constexpr uint32_t kVersion = 2;
  static constexpr uint32_t kNoPage = 0xFFFFFFFFu;
  static constexpr size_t kPageHeaderBytes = 16;
  static constexpr size_t kMinPageSize = 64;

  enum PageType : uint8_t {
    kHeaderPage = 1,
    kDataPage = 2,
    kOverflowPage = 3,
  };

  /// One decoded page: type, chain link, and the used payload bytes.
  struct PageView {
    uint8_t type = 0;
    uint32_t next_page = kNoPage;
    std::string payload;
  };

  ~PageFile();
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Creates (truncating any existing file) a fresh page file holding only
  /// its header page.
  static api::StatusOr<std::unique_ptr<PageFile>> Create(
      const std::string& path, size_t page_size);

  /// Opens an existing page file, validating the header page's CRC, magic,
  /// and version (kCorruption on any mismatch).
  static api::StatusOr<std::unique_ptr<PageFile>> Open(
      const std::string& path);

  size_t page_size() const { return page_size_; }
  size_t payload_capacity() const { return page_size_ - kPageHeaderBytes; }
  const std::string& path() const { return path_; }

  uint64_t num_pages() const {
    return num_pages_.load(std::memory_order_relaxed);
  }

  /// Hands out the next page id by extending the file's page count. The
  /// page reads as garbage until the caller WritePages it.
  api::StatusOr<uint32_t> Allocate();

  /// Frames `payload` into a full page image (type + link + CRC, zero
  /// padding) and writes it at `page_id`.
  api::Status WritePage(uint32_t page_id, uint8_t type, uint32_t next_page,
                        std::string_view payload);

  /// Reads + validates one page. CRC mismatch (a torn write, a bit flip) is
  /// kCorruption; a short read past the allocated range is kIoError.
  api::Status ReadPage(uint32_t page_id, PageView* out) const;

  /// Writes the header page (page size and page count).
  api::Status WriteHeader();

  /// fsync: every page written so far is on stable storage.
  api::Status Sync() const;

 private:
  PageFile() = default;

  api::Status WriteRaw(uint32_t page_id, const char* data) const;

  std::string path_;
  int fd_ = -1;
  size_t page_size_ = 0;
  /// Atomic so concurrent readers can bounds-check while the (serialized)
  /// writer extends the file; monotone, relaxed is enough.
  std::atomic<uint64_t> num_pages_{0};
};

}  // namespace strg::storage

#endif  // STRG_STORAGE_PAGER_PAGE_FILE_H_
