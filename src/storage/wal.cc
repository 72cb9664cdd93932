#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "storage/file_io.h"

namespace strg::storage {

namespace {

api::Status Errno(const std::string& what, const std::string& path) {
  return api::Status::IoError(what + " " + path + ": " +
                              std::strerror(errno));
}

/// Full write: retries short writes (regular files rarely short-write, but
/// the loop costs nothing and removes the assumption).
api::Status WriteAll(int fd, const char* data, size_t len,
                     const std::string& path) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("WAL: write to", path);
    }
    done += static_cast<size_t>(n);
  }
  return api::Status::Ok();
}

}  // namespace

FrameScan ScanFrames(std::string_view bytes) {
  FrameScan out;
  size_t pos = 0;
  while (bytes.size() - pos >= WalWriter::kHeaderBytes) {  // else torn header
    const uint32_t len = GetLe32(bytes.data() + pos);
    const uint32_t crc = GetLe32(bytes.data() + pos + 4);
    if (len > WalWriter::kMaxRecordBytes) break;             // mangled length
    if (bytes.size() - pos - WalWriter::kHeaderBytes < len) break;  // torn
    const char* payload = bytes.data() + pos + WalWriter::kHeaderBytes;
    if (Crc32c(payload, len) != crc) break;  // bit flip / stale frame
    out.payloads.emplace_back(payload, len);
    pos += WalWriter::kHeaderBytes + len;
  }
  out.valid_bytes = pos;
  return out;
}

api::StatusOr<WalRecovery> RecoverWal(const std::string& path) {
  WalRecovery out;

  api::StatusOr<std::string> read = ReadFileToString(path);
  if (!read.ok()) {
    if (read.status().code() == api::StatusCode::kNotFound) {
      return out;  // no log yet: empty recovery
    }
    return read.status();
  }
  out.bytes = std::make_unique<const std::string>(std::move(read).value());

  FrameScan scan = ScanFrames(*out.bytes);
  out.records = std::move(scan.payloads);
  out.valid_bytes = scan.valid_bytes;
  out.tail_truncated = scan.valid_bytes != out.bytes->size();

  if (out.tail_truncated) {
    if (::truncate(path.c_str(), static_cast<off_t>(scan.valid_bytes)) != 0) {
      return Errno("WAL: truncate of", path);
    }
  }
  return out;
}

WalWriter::~WalWriter() { CloseNoSync(); }

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    CloseNoSync();
    fd_ = std::exchange(other.fd_, -1);
    opts_ = other.opts_;
    records_appended_ = other.records_appended_;
    bytes_appended_ = other.bytes_appended_;
    syncs_ = other.syncs_;
    unsynced_records_ = other.unsynced_records_;
  }
  return *this;
}

void WalWriter::CloseNoSync() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

api::StatusOr<WalWriter> WalWriter::Open(const std::string& path,
                                         WalOptions opts) {
  return OpenWithFlags(path, opts, O_WRONLY | O_CREAT | O_APPEND);
}

api::StatusOr<WalWriter> WalWriter::Create(const std::string& path,
                                           WalOptions opts) {
  return OpenWithFlags(path, opts, O_WRONLY | O_CREAT | O_APPEND | O_TRUNC);
}

api::StatusOr<WalWriter> WalWriter::OpenWithFlags(const std::string& path,
                                                  WalOptions opts,
                                                  int flags) {
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Errno("WAL: open of", path);
  WalWriter w;
  w.fd_ = fd;
  w.opts_ = opts;
  return w;
}

api::Status WalWriter::Append(std::string_view payload) {
  if (fd_ < 0) return api::Status::IoError("WAL: writer is closed");
  if (payload.size() > kMaxRecordBytes) {
    return api::Status::InvalidArgument("WAL: record exceeds kMaxRecordBytes");
  }
  // One write per record (header + payload in a single buffer): the kernel
  // appends atomically with respect to our own later reads, and a crash
  // mid-write leaves at most one torn record at the tail.
  std::string frame;
  frame.resize(kHeaderBytes + payload.size());
  PutLe32(frame.data(), static_cast<uint32_t>(payload.size()));
  PutLe32(frame.data() + 4, Crc32c(payload.data(), payload.size()));
  std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());

  api::Status st = WriteAll(fd_, frame.data(), frame.size(), "log");
  if (!st.ok()) return st;
  ++records_appended_;
  ++unsynced_records_;
  bytes_appended_ += frame.size();

  switch (opts_.sync_policy) {
    case WalSyncPolicy::kEveryRecord:
      return Sync();
    case WalSyncPolicy::kEveryN:
      if (unsynced_records_ >= opts_.sync_every_n) return Sync();
      return api::Status::Ok();
    case WalSyncPolicy::kOnPublish:
      return api::Status::Ok();
  }
  return api::Status::Ok();
}

api::Status WalWriter::Sync() {
  if (fd_ < 0) return api::Status::IoError("WAL: writer is closed");
  if (unsynced_records_ == 0) return api::Status::Ok();
  if (::fsync(fd_) != 0) return Errno("WAL: fsync of", "log");
  ++syncs_;
  unsynced_records_ = 0;
  return api::Status::Ok();
}

api::Status WalWriter::Reset() {
  if (fd_ < 0) return api::Status::IoError("WAL: writer is closed");
  if (::ftruncate(fd_, 0) != 0) return Errno("WAL: ftruncate of", "log");
  if (::fsync(fd_) != 0) return Errno("WAL: fsync of", "log");
  unsynced_records_ = 0;
  return api::Status::Ok();
}

api::Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("WAL: open of dir", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("WAL: fsync of dir", dir);
  return api::Status::Ok();
}

}  // namespace strg::storage
