#include "storage/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace strg::storage {

api::StatusOr<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return api::Status::NotFound("read of " + path + ": no such file");
    }
    return api::Status::IoError("read: open of " + path + ": " +
                                std::strerror(errno));
  }
  std::string out;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<size_t>(st.st_size));  // one buffer, no regrowth
  }
  char buf[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      api::Status st = api::Status::IoError("read of " + path + ": " +
                                            std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace strg::storage
