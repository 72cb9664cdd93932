#include "util/cpu_features.h"

#include <cstdlib>
#include <cstring>

namespace strg::cpu {

// __builtin_cpu_init is idempotent; calling it first makes the query safe
// even from a static initializer that runs before libgcc's own constructor.

bool HasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

bool HasSse42() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

bool HasNeon() {
#if defined(__aarch64__)
  return true;
#else
  return false;
#endif
}

bool ForceScalar() {
  static const bool force = [] {
    const char* v = std::getenv("STRG_FORCE_SCALAR");
    return v != nullptr && std::strcmp(v, "1") == 0;
  }();
  return force;
}

}  // namespace strg::cpu
