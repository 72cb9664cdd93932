#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, then an AddressSanitizer
# pass over the concurrency-sensitive tests (serving layer + thread pool +
# the WAL crash-recovery matrix + the distance-kernel and parallel-ingest
# equivalence suites), then a UBSan pass over the recovery-, distance- and
# ingest-labeled tests (the durability layer does raw byte punning; the fast
# EGED kernel does banded DP over raw row pointers; the mean-shift kernel
# does integral-image index arithmetic — exactly where UB hides).
# A dedicated `server` stage runs the server-labeled suites (sharded
# scatter-gather, async runtime, metrics JSON, snapshot sharing) under ASan,
# and — with STRG_CHECK_TSAN=1 — the cancellation/deadline race,
# tau-pruning and snapshot-sharing tests under TSan. A `simd` stage re-runs the distance|simd suites under ASan and
# UBSan with STRG_FORCE_SCALAR=1, covering both dispatch tiers and the env
# override plumbing. A `crc` stage reruns the storage|paging suites under
# ASan and the recovery suites under UBSan with STRG_FORCE_SCALAR=1, so the
# portable slice-by-8 CRC32C tier runs end to end under both sanitizers
# (the default legs run the host's hardware tier). A `cluster` stage runs
# the cluster|seeding suites under ASan and UBSan (the Elkan/Hamerly bound
# bookkeeping and its batched kernel hand-off), and the TSan pass adds the
# parallel-restart equivalence test.
#
# A `deadlock` stage rebuilds with STRG_DEADLOCK_CHECK=ON and runs the
# rank-checker's own matrix (tests/deadlock_rank_test.cpp, death tests
# included) plus the deep-chain stress tests with every acquisition checked
# against the LockRank hierarchy (DESIGN.md §15).
#
#   scripts/check.sh                 # static + tier-1 + ASan + UBSan passes
#   STRG_CHECK_ASAN_ALL=1 scripts/check.sh   # ASan over the whole suite
#   STRG_CHECK_TSAN=1 scripts/check.sh       # also a ThreadSanitizer pass
#   STRG_CHECK_STATIC=0 scripts/check.sh     # skip the static pass
#   STRG_CHECK_DEADLOCK_ALL=1 scripts/check.sh  # full suite under the
#                                               # runtime rank checker
#   STRG_REQUIRE_CLANG=1 scripts/check.sh    # static pass treats missing
#                                            # clang/libclang as FAILURES
#                                            # instead of loud skips
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${STRG_CHECK_STATIC:-1}" == "1" ]]; then
  echo "== static pass (scripts/static.sh: linter + thread-safety + clang-tidy) =="
  # static.sh itself skips the Clang-only legs loudly when the tools are
  # absent; the invariant linter always runs.
  scripts/static.sh
  echo
else
  echo "== static pass skipped (STRG_CHECK_STATIC=0) =="
  echo
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j

# Configure both sanitizer trees up front: later stages build targets in
# either tree, so a fresh checkout must have both before the first build.
cmake -B build-asan -S . -DSTRG_SANITIZE=address \
  -DSTRG_BUILD_BENCHMARKS=OFF -DSTRG_BUILD_EXAMPLES=OFF >/dev/null
cmake -B build-ubsan -S . -DSTRG_SANITIZE=undefined \
  -DSTRG_BUILD_BENCHMARKS=OFF -DSTRG_BUILD_EXAMPLES=OFF >/dev/null

echo
echo "== ASan pass (STRG_SANITIZE=address) =="
if [[ "${STRG_CHECK_ASAN_ALL:-0}" == "1" ]]; then
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure -j
else
  cmake --build build-asan -j \
    --target server_concurrency_test thread_pool_test wal_recovery_test \
    distance_kernel_test ingest_parallel_test paging_test \
    serializer_property_test
  ./build-asan/tests/server_concurrency_test
  ./build-asan/tests/thread_pool_test
  ./build-asan/tests/wal_recovery_test
  ./build-asan/tests/distance_kernel_test
  ./build-asan/tests/ingest_parallel_test
fi
# Out-of-core storage under ASan: the pin protocol hands out views into
# cache frames, exactly where a use-after-evict or off-by-one in the slot
# walk would hide. Runs the storage- and paging-labeled suites.
ctest --test-dir build-asan -L 'storage|paging' --output-on-failure -j

echo
echo "== server stage (ASan): sharded scatter-gather + async runtime =="
# The serving layer's submit/complete lifecycle hands QueryResult objects
# across threads (worker -> completion callback -> waiter) and the sharded
# engine merges per-shard legs under a shared tau bound — exactly where a
# use-after-free on an abandoned request or gather would hide. Snapshot
# generations share index records, so a reader of an old generation racing
# the writer's path copies (snapshot_sharing_test) is checked here too.
cmake --build build-asan -j --target sharded_engine_test \
  server_metrics_json_test snapshot_sharing_test
ctest --test-dir build-asan -L server --output-on-failure -j

echo
echo "== cluster stage (ASan + UBSan): bounded-assignment equivalence =="
# The Elkan/Hamerly layer (src/cluster/bounds.h) keeps m x k bound arrays
# hot across iterations and hands flat-form rows to the batched DP kernels
# — an off-by-one in the lb row indexing or a stale flat pointer after a
# reseed is exactly the bug class ASan catches; the score-space pruning
# does log/sqrt radius arithmetic where UBSan would see a domain slip.
cmake --build build-asan -j --target cluster_bounds_test cluster_test \
  seeding_test
cmake --build build-ubsan -j --target cluster_bounds_test cluster_test \
  seeding_test
ctest --test-dir build-asan -L 'cluster|seeding' --output-on-failure -j
ctest --test-dir build-ubsan -L 'cluster|seeding' --output-on-failure -j

echo
echo "== deadlock stage (STRG_DEADLOCK_CHECK=ON): runtime rank checker =="
# Every Lock()/LockShared() is checked against the thread-local held-rank
# stack: an inversion aborts with both rank names instead of deadlocking.
# The death tests prove the aborts fire; the deep-chain stress drives the
# longest legal chains (ingest -> writer -> paged store -> buffer cache,
# with live queries) with checking on.
cmake -B build-deadlock -S . -DSTRG_DEADLOCK_CHECK=ON \
  -DSTRG_BUILD_BENCHMARKS=OFF -DSTRG_BUILD_EXAMPLES=OFF >/dev/null
if [[ "${STRG_CHECK_DEADLOCK_ALL:-0}" == "1" ]]; then
  cmake --build build-deadlock -j
  ctest --test-dir build-deadlock --output-on-failure -j
else
  cmake --build build-deadlock -j --target deadlock_rank_test \
    sharded_engine_test
  ./build-deadlock/tests/deadlock_rank_test
  ./build-deadlock/tests/sharded_engine_test \
    --gtest_filter='ShardedEngine.DeepLockChainStressWithLiveWriter:ShardedEngine.CancellationAndDeadlineRaceIsClean'
fi

echo
echo "== UBSan pass over recovery+distance+ingest-labeled tests (STRG_SANITIZE=undefined) =="
cmake --build build-ubsan -j --target wal_recovery_test distance_kernel_test \
  ingest_parallel_test
ctest --test-dir build-ubsan -L 'recovery|distance|ingest' --output-on-failure -j

echo
echo "== simd stage: dispatch-tier equivalence under ASan + UBSan, both tiers =="
# The distance|simd suites force tiers internally (scalar vs detected), so
# one run already covers the vector kernels' memory/UB behavior; running
# them again under STRG_FORCE_SCALAR=1 additionally proves the env override
# plumbing and the scalar-initial-state path. The unaligned _mm256_loadu /
# vld1q tails and the wavefront DP's offset arithmetic are exactly where an
# out-of-bounds lane or pointer-wrap UB would hide.
cmake --build build-asan -j --target simd_dispatch_test
cmake --build build-ubsan -j --target simd_dispatch_test
ctest --test-dir build-asan -L 'distance|simd' --output-on-failure -j
STRG_FORCE_SCALAR=1 ctest --test-dir build-asan -L 'distance|simd' \
  --output-on-failure -j
STRG_FORCE_SCALAR=1 ctest --test-dir build-ubsan -L 'distance|simd' \
  --output-on-failure -j

echo
echo "== crc stage: portable CRC32C tier end to end (STRG_FORCE_SCALAR=1) =="
# STRG_FORCE_SCALAR=1 pins slice-by-8 for every page and WAL record, the
# tier hosts without SSE4.2 run: the page-file, buffer-cache, paged-index
# and record-store suites under ASan, and the WAL crash matrix and CRC
# vectors under UBSan (the tables' word assembly is raw byte punning).
# Both binaries were built by the stages above.
STRG_FORCE_SCALAR=1 ctest --test-dir build-asan -L 'storage|paging' \
  --output-on-failure -j
STRG_FORCE_SCALAR=1 ctest --test-dir build-ubsan -L recovery \
  --output-on-failure -j

if [[ "${STRG_CHECK_TSAN:-0}" == "1" ]]; then
  echo
  echo "== TSan pass (STRG_SANITIZE=thread) =="
  cmake -B build-tsan -S . -DSTRG_SANITIZE=thread \
    -DSTRG_BUILD_BENCHMARKS=OFF -DSTRG_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan -j --target server_concurrency_test \
    thread_pool_test distance_kernel_test ingest_parallel_test paging_test \
    sharded_engine_test snapshot_sharing_test
  ./build-tsan/tests/server_concurrency_test
  # A reader of a held generation races the writer's root/cluster path
  # copies (RAM and paged leaves) while asserting bitwise-unchanged answers.
  ./build-tsan/tests/snapshot_sharing_test
  ./build-tsan/tests/thread_pool_test
  # Server stage under TSan: scatter-gather legs racing cancellation,
  # deadlines, and a live writer — the exactly-once finalize CAS and the
  # tau-bound publication are the contested atomics. The deep-chain stress
  # adds paged per-shard stores so the full ingest -> writer -> record
  # store -> buffer cache lock chain runs under the race checker.
  ./build-tsan/tests/sharded_engine_test \
    --gtest_filter='ShardedEngine.CancellationAndDeadlineRaceIsClean:ShardedEngine.TauPruningFiresAndStaysExact:ShardedEngine.DeepLockChainStressWithLiveWriter'
  # Fast/reference equivalence with the thread pool engaged (parallel build
  # + concurrent queries) — the data-race check for the kernel's thread-local
  # workspaces and the per-query counter plumbing.
  ./build-tsan/tests/distance_kernel_test
  # Pooled ingest equivalence under TSan: the ordered-stage merge, the
  # per-worker thread_local segmenter workspaces, and shot-parallel
  # ProcessFrames all race-checked while asserting bit-identical output.
  ./build-tsan/tests/ingest_parallel_test
  # Buffer-cache pin/unpin + copy-on-write frame handoff race-checked while
  # a writer rewrites pages under concurrent readers.
  ./build-tsan/tests/paging_test \
    --gtest_filter='BufferCache.ConcurrentPinUnpinWithWriterIsConsistent'
  # Parallel EM restarts with the bounded assigner engaged: each restart
  # owns its BoundedAssigner and ClusterStats, merged serially afterward —
  # TSan proves the per-restart state really is private while the test
  # asserts pooled == serial bit-identically.
  cmake --build build-tsan -j --target cluster_bounds_test
  ./build-tsan/tests/cluster_bounds_test \
    --gtest_filter='ClusterBoundsParallel.RestartEquivalence'
fi

echo
echo "check.sh: all passes green"
