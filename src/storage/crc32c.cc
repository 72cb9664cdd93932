#include "storage/crc32c.h"

#include <array>
#include <vector>

#include "util/cpu_features.h"

namespace strg::storage {

#if defined(STRG_CRC32C_HAVE_SSE42)
// Single-stream SSE4.2 tier, defined in crc32c_sse42.cc (the one storage
// translation unit compiled with -msse4.2). Call only when
// cpu::HasSse42().
uint32_t Crc32cSse42(const void* data, size_t len, uint32_t seed);
#endif

namespace {

constexpr uint32_t kCrc32cPoly = 0x82F63B78u;  // reflected Castagnoli

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slice-by-8 tables: tables[0][b] is the CRC of byte b alone, and
/// tables[k][b] is tables[k - 1][b] advanced through one more zero byte, so
/// tables[k] carries a byte k positions ahead of the end of an 8-byte word.
constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

constexpr Crc32cTier kPortableTier{"slice-by-8", &Crc32cPortable};

}  // namespace

std::span<const Crc32cTier> Crc32cTiers() {
  static const std::vector<Crc32cTier> tiers = [] {
    std::vector<Crc32cTier> t{kPortableTier};
#if defined(STRG_CRC32C_HAVE_SSE42)
    if (cpu::HasSse42()) t.push_back({"sse4.2", &Crc32cSse42});
#endif
    return t;
  }();
  return tiers;
}

const Crc32cTier& ActiveCrc32cTier() {
  // The last listed tier is the fastest the host runs.
  static const Crc32cTier& active =
      cpu::ForceScalar() ? kPortableTier : Crc32cTiers().back();
  return active;
}

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  return ActiveCrc32cTier().fn(data, len, seed);
}

uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed) {
  const auto& t = kCrc32cTables;
  const char* p = static_cast<const char*>(data);
  uint32_t crc = ~seed;
  // Eight bytes per step: the running CRC folds into the first
  // little-endian word (assembled from bytes, so alignment and host byte
  // order do not matter), and each of the eight bytes indexes the table
  // for its distance from the end of the word.
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = crc ^ GetLe32(p);
    const uint32_t hi = GetLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace strg::storage
