#ifndef STRG_STORAGE_CRC32C_H_
#define STRG_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace strg::storage {

/// CRC32C (Castagnoli polynomial, the one with hardware support on modern
/// CPUs and strong burst-error detection for storage framing). Portable
/// slice-by-8 software tables (eight bytes per step, no intrinsics);
/// `seed` chains partial computations. Shared by the
/// WAL record framing and the pager's per-page checksums — one checksum
/// vocabulary for every torn-write detector in the tree.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

/// Little-endian fixed-width framing helpers used by every on-disk format
/// (WAL record headers, page headers). The serializer's Writer/Reader wrap
/// these for variable-length payloads; raw headers use them directly.
inline void PutLe32(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
}

inline uint32_t GetLe32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace strg::storage

#endif  // STRG_STORAGE_CRC32C_H_
