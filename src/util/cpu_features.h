#ifndef STRG_UTIL_CPU_FEATURES_H_
#define STRG_UTIL_CPU_FEATURES_H_

// Host CPU feature detection shared by every runtime dispatcher: the
// distance kernels (src/distance/simd/dispatch.cpp) and the CRC32C tiers
// (src/storage/crc32c.cc). Each question is answered once, at first call,
// so two dispatchers can never disagree about the host.
//
// These report what the CPU executes, not what the build compiled: a
// dispatcher also needs its tier's translation unit in the build.

namespace strg::cpu {

/// x86-64 AVX2 (false on every other architecture).
bool HasAvx2();

/// x86-64 SSE4.2, whose `crc32` instruction computes CRC32C (false on
/// every other architecture).
bool HasSse42();

/// aarch64 Advanced SIMD, which is part of that architecture's baseline.
bool HasNeon();

/// STRG_FORCE_SCALAR=1 in the environment: every dispatcher starts on its
/// portable tier (scalar distance kernels, slice-by-8 CRC32C). Read once.
bool ForceScalar();

}  // namespace strg::cpu

#endif  // STRG_UTIL_CPU_FEATURES_H_
