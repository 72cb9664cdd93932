#ifndef STRG_STORAGE_FILE_IO_H_
#define STRG_STORAGE_FILE_IO_H_

#include <string>

#include "api/status.h"

namespace strg::storage {

/// Whole-file read into memory. A missing file is kNotFound (callers that
/// treat absence as "empty state" branch on the code); OS-level failures
/// are kIoError.
api::StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace strg::storage

#endif  // STRG_STORAGE_FILE_IO_H_
