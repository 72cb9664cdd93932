#include "distance/simd/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "distance/simd/kernels.h"
#include "util/cpu_features.h"

namespace strg::dist::simd {
namespace {

bool HostSupports(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
#if defined(STRG_SIMD_HAVE_AVX2)
      return cpu::HasAvx2();
#else
      return false;
#endif
    case Tier::kNeon:
#if defined(STRG_SIMD_HAVE_NEON)
      return cpu::HasNeon();
#else
      return false;
#endif
  }
  return false;
}

// Resolves the startup tier: detected best, unless the environment pins one.
const KernelOps* InitialOps() {
  Tier tier = DetectedTier();
  if (cpu::ForceScalar()) {
    tier = Tier::kScalar;
  } else if (const char* name = std::getenv("STRG_SIMD_TIER")) {
    Tier want = tier;
    bool known = true;
    if (std::strcmp(name, "scalar") == 0) {
      want = Tier::kScalar;
    } else if (std::strcmp(name, "avx2") == 0) {
      want = Tier::kAvx2;
    } else if (std::strcmp(name, "neon") == 0) {
      want = Tier::kNeon;
    } else {
      known = false;
    }
    if (known && HostSupports(want)) {
      tier = want;
    } else {
      std::fprintf(stderr,
                   "strg: STRG_SIMD_TIER=%s unavailable on this host/build; "
                   "using %s\n",
                   name, TierName(tier));
    }
  }
  return OpsForTier(tier);
}

std::atomic<const KernelOps*> g_active{nullptr};

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kNeon:
      return "neon";
  }
  return "unknown";
}

Tier DetectedTier() {
  if (HostSupports(Tier::kAvx2)) return Tier::kAvx2;
  if (HostSupports(Tier::kNeon)) return Tier::kNeon;
  return Tier::kScalar;
}

const KernelOps* OpsForTier(Tier tier) {
  if (!HostSupports(tier)) return nullptr;
  switch (tier) {
    case Tier::kScalar:
      return &ScalarOps();
    case Tier::kAvx2:
#if defined(STRG_SIMD_HAVE_AVX2)
      return &Avx2Ops();
#else
      return nullptr;
#endif
    case Tier::kNeon:
#if defined(STRG_SIMD_HAVE_NEON)
      return &NeonOps();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const KernelOps& ActiveOps() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // Benign race: concurrent first calls compute the same pointer.
    ops = InitialOps();
    const KernelOps* expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, ops,
                                          std::memory_order_acq_rel)) {
      ops = expected;
    }
  }
  return *ops;
}

Tier ActiveTier() { return ActiveOps().tier; }

bool ForceTier(Tier tier) {
  const KernelOps* ops = OpsForTier(tier);
  if (ops == nullptr) return false;
  g_active.store(ops, std::memory_order_release);
  return true;
}

}  // namespace strg::dist::simd
