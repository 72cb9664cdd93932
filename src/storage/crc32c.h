#ifndef STRG_STORAGE_CRC32C_H_
#define STRG_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace strg::storage {

/// CRC32C (Castagnoli polynomial, the one with hardware support on modern
/// CPUs and strong burst-error detection for storage framing); `seed`
/// chains partial computations. Shared by the WAL record framing and the
/// pager's per-page checksums — one checksum vocabulary for every
/// torn-write detector in the tree.
///
/// Dispatched once, at first use, by the host CPU: SSE4.2's `crc32`
/// instruction (eight bytes per instruction, src/storage/crc32c_sse42.cc)
/// where the host has it, else the portable tier below. STRG_FORCE_SCALAR=1
/// pins the portable tier. Every tier returns the same value.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

/// The portable tier: slice-by-8 software tables (eight bytes per step, no
/// intrinsics). Always available.
uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed = 0);

/// One CRC32C implementation, for tooling that names or times the tiers.
struct Crc32cTier {
  const char* name;
  uint32_t (*fn)(const void* data, size_t len, uint32_t seed);
};

/// The tier Crc32c runs.
const Crc32cTier& ActiveCrc32cTier();

/// Every tier this host and build can run, portable first.
std::span<const Crc32cTier> Crc32cTiers();

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

inline uint64_t GetLe64(const char* p) {
  return static_cast<uint64_t>(GetLe32(p)) |
         static_cast<uint64_t>(GetLe32(p + 4)) << 32;
}

}  // namespace strg::storage

#endif  // STRG_STORAGE_CRC32C_H_
