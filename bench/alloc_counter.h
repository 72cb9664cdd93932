#ifndef STRG_BENCH_ALLOC_COUNTER_H_
#define STRG_BENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace strg::bench {

/// Global operator new calls counted between StartAllocCount() and
/// StopAllocCount(), on every thread.
struct AllocCount {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

/// Zeroes the counts and starts counting. alloc_counter.cpp replaces the
/// global operator new/delete, so a bench that counts compiles it as one of
/// its own sources: the linker could skip the object in a static library.
void StartAllocCount();

/// Stops counting and returns what was counted since StartAllocCount().
AllocCount StopAllocCount();

}  // namespace strg::bench

#endif  // STRG_BENCH_ALLOC_COUNTER_H_
