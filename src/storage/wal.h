#ifndef STRG_STORAGE_WAL_H_
#define STRG_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.h"
#include "storage/crc32c.h"  // record checksums (shared with the pager)

namespace strg::storage {

/// When the writer pays for an fsync. The policy trades the durability
/// window against append throughput; every policy keeps the *ordering*
/// guarantee (a record is fully framed before the next begins), so a crash
/// can only cost a suffix of recent records, never corrupt the prefix.
enum class WalSyncPolicy {
  /// fsync after every record: an acked write survives OS + power failure.
  kEveryRecord,
  /// Group commit: fsync once per `sync_every_n` records. Acked writes in
  /// the open group survive process death (page cache) but not OS death.
  kEveryN,
  /// Defer to snapshot publication (compaction) or an explicit Sync().
  /// Fastest; the durability window is the whole log since the last
  /// publish. Still torn-tail-safe on recovery.
  kOnPublish,
};

struct WalOptions {
  WalSyncPolicy sync_policy = WalSyncPolicy::kEveryRecord;
  size_t sync_every_n = 32;  ///< group size under kEveryN
};

/// The clean prefix of a run of frames: each frame's payload as a view
/// into the scanned bytes, in order, and where that prefix ends.
struct FrameScan {
  std::vector<std::string_view> payloads;
  size_t valid_bytes = 0;
};

/// Pure scan over framed bytes (no I/O). The first anomaly — a header
/// shorter than 8 bytes, a length above kMaxRecordBytes or running past
/// the end, or a checksum mismatch — ends the clean prefix. Its callers
/// differ only in what they do with a dirty tail: log recovery truncates
/// it, the catalog loader (storage/catalog.h) refuses the file.
FrameScan ScanFrames(std::string_view bytes);

/// Result of scanning a log at open: the payloads of the clean prefix plus
/// what (if anything) was cut from the tail.
struct WalRecovery {
  /// The log as read; `records` view into it. Heap-held so the views stay
  /// valid when the recovery is moved.
  std::unique_ptr<const std::string> bytes;
  std::vector<std::string_view> records;  ///< validated payloads, log order
  uint64_t valid_bytes = 0;               ///< length of the clean prefix
  bool tail_truncated = false;            ///< a torn/corrupt tail was dropped
};

/// Reads `path` and scans it with ScanFrames; a dirty tail is truncated
/// in place so the next append starts from a well-formed tail. A missing
/// file is an empty (OK) recovery, not an error.
api::StatusOr<WalRecovery> RecoverWal(const std::string& path);

/// Append-only writer over one log file.
///
/// Record framing (little-endian):
///     [u32 payload_len][u32 crc32c(payload)][payload bytes]
/// The CRC covers the payload only; a mangled length field is caught by the
/// resulting CRC window mismatch (or by running past EOF), so both framing
/// fields are effectively validated on recovery.
///
/// Concurrency: externally serialized, by design. A WalWriter is owned by
/// exactly one writer protocol (DurableQueryEngine holds it as a field
/// STRG_GUARDED_BY(ingest_mu_)), so the guard lives at the owner where the
/// append + seq-advance + publish steps must be atomic *together* — a lock
/// inside this class could only protect the append, not the protocol.
class WalWriter {
 public:
  static constexpr size_t kHeaderBytes = 8;
  /// Upper bound on one record; a recovered length above this is treated
  /// as corruption rather than a 4 GiB allocation.
  static constexpr uint32_t kMaxRecordBytes = 1u << 30;

  WalWriter() = default;  ///< closed; assign from Open()
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending (creating it if absent). The caller is
  /// expected to have run RecoverWal first so the tail is clean.
  static api::StatusOr<WalWriter> Open(const std::string& path,
                                       WalOptions opts = {});
  /// Like Open, but truncates `path` first: the writer starts an empty
  /// file rather than appending to whatever a crashed writer left there.
  static api::StatusOr<WalWriter> Create(const std::string& path,
                                         WalOptions opts = {});

  /// Frames + appends one payload, then fsyncs according to the policy.
  /// When Append returns OK under kEveryRecord, the record is on stable
  /// storage.
  api::Status Append(std::string_view payload);

  /// Forces an fsync regardless of policy (no-op when nothing is pending).
  api::Status Sync();

  /// Truncates the log to empty (after its contents were compacted into a
  /// durable snapshot) and fsyncs the truncation.
  api::Status Reset();

  bool is_open() const { return fd_ >= 0; }
  uint64_t records_appended() const { return records_appended_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t syncs() const { return syncs_; }
  uint64_t unsynced_records() const { return unsynced_records_; }

 private:
  static api::StatusOr<WalWriter> OpenWithFlags(const std::string& path,
                                                WalOptions opts, int flags);
  void CloseNoSync();

  int fd_ = -1;
  WalOptions opts_;
  uint64_t records_appended_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t syncs_ = 0;
  uint64_t unsynced_records_ = 0;
};

/// fsyncs a directory so a rename inside it is durable (the tmp-write +
/// rename snapshot publication protocol needs this on POSIX).
api::Status SyncDir(const std::string& dir);

}  // namespace strg::storage

#endif  // STRG_STORAGE_WAL_H_
