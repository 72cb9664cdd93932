// SSE4.2 tier of storage::Crc32c. This is the one storage translation unit
// compiled with -msse4.2 (src/storage/CMakeLists.txt), so nothing else in
// the library can pick up the ISA by accident; crc32c.cc calls it only
// after cpu::HasSse42() said the host runs it.
#include <nmmintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace strg::storage {

// The `crc32` instruction computes exactly the reflected Castagnoli CRC,
// consuming its operand's bytes in memory order on this little-endian
// ISA, so it continues the same running state the slice-by-8 tables
// carry. One dependent stream: about 3 cycles per 8 bytes.
uint32_t Crc32cSse42(const void* data, size_t len, uint32_t seed) {
  const char* p = static_cast<const char*>(data);
  uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned loads are fine here
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++p, --len) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*p));
  }
  return ~crc32;
}

}  // namespace strg::storage
