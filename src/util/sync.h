#ifndef STRG_UTIL_SYNC_H_
#define STRG_UTIL_SYNC_H_

#include <condition_variable>  // NOLINT(strg-naked-mutex): this is the one sanctioned wrapper site
#include <mutex>               // NOLINT(strg-naked-mutex): this is the one sanctioned wrapper site
#include <shared_mutex>        // NOLINT(strg-naked-mutex): this is the one sanctioned wrapper site

#if defined(STRG_DEADLOCK_CHECK) && STRG_DEADLOCK_CHECK
#define STRG_DEADLOCK_CHECK_ENABLED 1
#include <cstdio>   // abort diagnostics only; compiled out in release
#include <cstdlib>
#else
#define STRG_DEADLOCK_CHECK_ENABLED 0
#endif

namespace strg {

/// Annotated synchronization layer.
///
/// Every mutex in the tree goes through these wrappers so Clang's
/// -Wthread-safety analysis can prove the lock discipline at compile time:
/// a field tagged STRG_GUARDED_BY(mu) cannot be touched without holding
/// `mu`, a method tagged STRG_REQUIRES(mu) cannot be called unlocked, and a
/// Mutex cannot be acquired twice on one path — each violation is a build
/// error under STRG_STATIC_ANALYSIS=ON, not a production race. On non-Clang
/// compilers every attribute expands to nothing and the wrappers compile
/// down to the std primitives they hold, so the annotated build is the same
/// binary GCC always produced (scripts/strg_lint.py enforces that no naked
/// std::mutex / std::condition_variable appears outside this header).
///
/// Conventions (see DESIGN.md §9 for the full guide):
///  - guarded fields:      `int x_ STRG_GUARDED_BY(mu_);`
///  - guarded pointees:    `T* p_ STRG_PT_GUARDED_BY(mu_);`
///  - private helpers that assume the lock: `void FooLocked() STRG_REQUIRES(mu_);`
///  - public entry points that take the lock: `void Foo() STRG_EXCLUDES(mu_);`
///  - deliberate opt-outs: `STRG_NO_THREAD_SAFETY_ANALYSIS` with a one-line
///    justification comment — bare opt-outs are rejected in review.

#if defined(__clang__) && (!defined(SWIG))
#define STRG_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define STRG_THREAD_ANNOTATION__(x)  // no-op: GCC/MSVC have no capability analysis
#endif

/// Tags a type as a lockable capability (the analysis tracks instances).
#define STRG_CAPABILITY(x) STRG_THREAD_ANNOTATION__(capability(x))
/// Tags an RAII type whose constructor acquires and destructor releases.
#define STRG_SCOPED_CAPABILITY STRG_THREAD_ANNOTATION__(scoped_lockable)
/// Field may only be read/written while holding `x`.
#define STRG_GUARDED_BY(x) STRG_THREAD_ANNOTATION__(guarded_by(x))
/// Pointee (not the pointer) may only be dereferenced while holding `x`.
#define STRG_PT_GUARDED_BY(x) STRG_THREAD_ANNOTATION__(pt_guarded_by(x))
/// Function body assumes the listed capabilities are already held.
#define STRG_REQUIRES(...) \
  STRG_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define STRG_REQUIRES_SHARED(...) \
  STRG_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
/// Function acquires / releases the listed capabilities.
#define STRG_ACQUIRE(...) \
  STRG_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define STRG_ACQUIRE_SHARED(...) \
  STRG_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define STRG_RELEASE(...) \
  STRG_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define STRG_RELEASE_SHARED(...) \
  STRG_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
/// Function must NOT be called with the listed capabilities held
/// (deadlock-by-reentry prevention for public entry points).
#define STRG_EXCLUDES(...) STRG_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
/// Try-acquire: `b` is the return value that means "acquired".
#define STRG_TRY_ACQUIRE(...) \
  STRG_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
/// Function returns a reference to the capability guarding its result.
#define STRG_RETURN_CAPABILITY(x) STRG_THREAD_ANNOTATION__(lock_returned(x))
/// Deliberate opt-out; always pair with a one-line justification comment.
#define STRG_NO_THREAD_SAFETY_ANALYSIS \
  STRG_THREAD_ANNOTATION__(no_thread_safety_analysis)
/// Documentation-only marker: the function is lock-free by design (it reads
/// relaxed atomics or immutable state) and intentionally holds no mutex.
/// Expands to nothing under every compiler; it exists so the *absence* of a
/// lock is visibly a decision, not an omission.
#define STRG_LOCK_FREE
/// Documentation-only sibling of STRG_EXCLUDES for a capability the
/// attribute grammar cannot name statically — one shard's mutex selected at
/// runtime (BufferCache::Shard::mu). The argument is the capability
/// *family* being excluded. Expands to nothing; scripts/strg_lint.py's
/// strg-lock-excludes rule accepts it wherever STRG_EXCLUDES would be
/// required.
#define STRG_EXCLUDES_DYNAMIC(...)

/// Repo-wide lock hierarchy, outermost first: a thread may only acquire a
/// mutex whose rank is STRICTLY GREATER than every rank it already holds.
/// The table *is* the deadlock-freedom argument — any two threads taking
/// any subset of these locks take them in one global order, so no cycle of
/// waits can close. Enforced three ways:
///   - runtime: under STRG_DEADLOCK_CHECK=ON every acquisition is checked
///     against a thread-local held-rank stack and an inversion aborts with
///     both rank names (zero-cost no-ops when the option is OFF);
///   - statically: scripts/lock_graph.py extracts the acquisition graph
///     (declared in docs/lock_graph.json, AST-verified via libclang when
///     available), fails on cycles and on edges contradicting these ranks;
///   - by review: a new mutex MUST pick a rank here, which forces the "what
///     can I be held under?" question at design time.
///
/// Gaps of 100 leave room to slot new locks between existing levels without
/// renumbering. kUnranked (tests, examples, scratch locks) is exempt from
/// checking: it neither pushes a rank nor constrains later acquisitions.
///
/// The deepest legal chains today (see DESIGN.md §15 for the full graph):
///   write:  kIngestSharded -> kShardMap
///           kIngestSharded/kIngestDurable -> kEngineWriter (a
///             SnapshotChain's clone-mutate-publish window)
///             -> kRecordStore, -> kBufferCache, -> kSnapshot, -> kThreadPool
///   query:  kThreadPool / kGatherMerge / kRequestState / kSnapshot /
///           kRecordStore / kBufferCache (taken one at a time: an engine
///           posts a request or leg to its pool with no lock held, and a
///           paged read holds the store mutex only to copy a record off the
///           tail page and pins sealed pages without it, so the two never
///           nest)
enum class LockRank : int {
  kUnranked = 0,        ///< exempt: test/example/scratch locks
  kIngestSharded = 100, ///< ShardedQueryEngine::ingest_mu_ (global write order)
  kIngestDurable = 200, ///< DurableQueryEngine::ingest_mu_ (WAL+publish window)
  kShardMap = 300,      ///< ShardedQueryEngine::map_mu_ (local->global ids)
  kEngineWriter = 400,  ///< SnapshotChain::writer_mu_ (clone-mutate-publish)
  kGatherMerge = 500,   ///< ShardedQueryEngine::Gather::merge_mu
  kRequestState = 700,  ///< RequestState::mu (completion rendezvous)
  kRecordStore = 800,   ///< PagedRecordStore::mu_ (the tail page)
  kBufferCache = 900,   ///< BufferCache::Shard::mu (frame pin/evict)
  kSnapshot = 1000,     ///< SnapshotChain::mu_ (epoch pointer; leaf)
  kThreadPool = 1100,   ///< ThreadPool::mutex_ (task queue)
  kPoolError = 1200,    ///< ThreadPool::ParallelFor error_mutex
  kPoolDone = 1300,     ///< ThreadPool::ParallelFor done_mutex
};

/// Stable name for diagnostics (abort messages, lock_graph.py dot labels).
constexpr const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "kUnranked";
    case LockRank::kIngestSharded: return "kIngestSharded";
    case LockRank::kIngestDurable: return "kIngestDurable";
    case LockRank::kShardMap: return "kShardMap";
    case LockRank::kEngineWriter: return "kEngineWriter";
    case LockRank::kGatherMerge: return "kGatherMerge";
    case LockRank::kRequestState: return "kRequestState";
    case LockRank::kRecordStore: return "kRecordStore";
    case LockRank::kBufferCache: return "kBufferCache";
    case LockRank::kSnapshot: return "kSnapshot";
    case LockRank::kThreadPool: return "kThreadPool";
    case LockRank::kPoolError: return "kPoolError";
    case LockRank::kPoolDone: return "kPoolDone";
  }
  return "unknown";
}

#if STRG_DEADLOCK_CHECK_ENABLED
namespace sync_internal {

/// Per-thread stack of held ranks. Fixed-size POD storage: the checker must
/// never allocate (it runs inside every Lock()) and never re-enter itself.
/// 64 simultaneously held ranked locks is far beyond any legal chain (the
/// deepest today is 5); overflowing it is itself a discipline violation.
struct HeldRanks {
  static constexpr int kMaxDepth = 64;
  int depth = 0;
  LockRank ranks[kMaxDepth] = {};
};

inline HeldRanks& TlsHeldRanks() {
  thread_local HeldRanks held;
  return held;
}

/// Checks the would-be acquisition against the hierarchy and records it.
/// Called BEFORE the underlying lock() blocks, so an inversion aborts with
/// a diagnosis instead of deadlocking silently under contention.
inline void PushRank(LockRank rank) {
  if (rank == LockRank::kUnranked) return;
  HeldRanks& held = TlsHeldRanks();
  if (held.depth > 0) {
    const LockRank top = held.ranks[held.depth - 1];
    if (static_cast<int>(top) >= static_cast<int>(rank)) {
      std::fprintf(
          stderr,
          "strg: LOCK RANK INVERSION: acquiring %s (%d) while holding %s "
          "(%d); the lock hierarchy (src/util/sync.h LockRank, DESIGN.md "
          "S15) requires strictly increasing ranks. Fix the acquisition "
          "order or re-rank the locks (and rerun scripts/lock_graph.py).\n",
          LockRankName(rank), static_cast<int>(rank), LockRankName(top),
          static_cast<int>(top));
      std::abort();
    }
  }
  if (held.depth == HeldRanks::kMaxDepth) {
    std::fprintf(stderr, "strg: held-rank stack overflow (%d locks)\n",
                 HeldRanks::kMaxDepth);
    std::abort();
  }
  held.ranks[held.depth++] = rank;
}

/// Removes `rank` from the held stack (topmost occurrence — release order
/// is LIFO under RAII, but hand-over-hand unlocking stays legal).
inline void PopRank(LockRank rank) {
  if (rank == LockRank::kUnranked) return;
  HeldRanks& held = TlsHeldRanks();
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.ranks[i] == rank) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.ranks[j] = held.ranks[j + 1];
      }
      --held.depth;
      return;
    }
  }
  std::fprintf(stderr,
               "strg: releasing rank %s that this thread does not hold\n",
               LockRankName(rank));
  std::abort();
}

}  // namespace sync_internal
#endif  // STRG_DEADLOCK_CHECK_ENABLED

/// Exclusive mutex. Same cost and semantics as std::mutex; the capability
/// tag is what lets the analysis connect STRG_GUARDED_BY fields to it.
/// Construct with the lock's LockRank — every mutex under src/ declares one
/// (the default kUnranked form is for tests/examples). Rank storage and
/// checking exist only under STRG_DEADLOCK_CHECK=ON; in release builds the
/// rank argument is discarded and Lock()/Unlock() compile to exactly the
/// std::mutex calls they always were (byte-identical hot paths).
class STRG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
#if STRG_DEADLOCK_CHECK_ENABLED
  explicit Mutex(LockRank rank) : rank_(rank) {}
#else
  // constexpr: a ranked global/static Mutex must get constant
  // initialization exactly like a default-constructed one (no dynamic
  // initializer — the release build is bit-identical either way).
  constexpr explicit Mutex(LockRank /*rank*/) {}
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if STRG_DEADLOCK_CHECK_ENABLED
  void Lock() STRG_ACQUIRE() {
    sync_internal::PushRank(rank_);  // before blocking: diagnose, not hang
    mu_.lock();
  }
  void Unlock() STRG_RELEASE() {
    // Pop BEFORE unlocking: the instant mu_ is released another thread may
    // destroy this Mutex (ParallelFor's completion handshake does exactly
    // that — the waiter owns the stack-local mutexes), so rank_ must not be
    // read after unlock().
    sync_internal::PopRank(rank_);
    mu_.unlock();
  }
  bool TryLock() STRG_TRY_ACQUIRE(true) {
    sync_internal::PushRank(rank_);
    if (mu_.try_lock()) return true;
    sync_internal::PopRank(rank_);
    return false;
  }
#else
  void Lock() STRG_ACQUIRE() { mu_.lock(); }
  void Unlock() STRG_RELEASE() { mu_.unlock(); }
  bool TryLock() STRG_TRY_ACQUIRE(true) { return mu_.try_lock(); }
#endif

 private:
  friend class CondVar;
  std::mutex mu_;
#if STRG_DEADLOCK_CHECK_ENABLED
  LockRank rank_ = LockRank::kUnranked;
#endif
};

/// Reader/writer mutex (std::shared_mutex underneath). Shared acquisitions
/// participate in the rank discipline exactly like exclusive ones: a reader
/// holding rank R may only acquire ranks > R.
class STRG_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
#if STRG_DEADLOCK_CHECK_ENABLED
  explicit SharedMutex(LockRank rank) : rank_(rank) {}
#else
  constexpr explicit SharedMutex(LockRank /*rank*/) {}  // see Mutex
#endif
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

#if STRG_DEADLOCK_CHECK_ENABLED
  void Lock() STRG_ACQUIRE() {
    sync_internal::PushRank(rank_);
    mu_.lock();
  }
  void Unlock() STRG_RELEASE() {
    sync_internal::PopRank(rank_);  // pop first: see Mutex::Unlock
    mu_.unlock();
  }
  void LockShared() STRG_ACQUIRE_SHARED() {
    sync_internal::PushRank(rank_);
    mu_.lock_shared();
  }
  void UnlockShared() STRG_RELEASE_SHARED() {
    sync_internal::PopRank(rank_);  // pop first: see Mutex::Unlock
    mu_.unlock_shared();
  }
#else
  void Lock() STRG_ACQUIRE() { mu_.lock(); }
  void Unlock() STRG_RELEASE() { mu_.unlock(); }
  void LockShared() STRG_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() STRG_RELEASE_SHARED() { mu_.unlock_shared(); }
#endif

 private:
  std::shared_mutex mu_;
#if STRG_DEADLOCK_CHECK_ENABLED
  LockRank rank_ = LockRank::kUnranked;
#endif
};

/// RAII exclusive lock over Mutex — the sanctioned replacement for
/// std::lock_guard / std::unique_lock in non-condition-variable code.
class STRG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) STRG_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() STRG_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared (reader) lock over SharedMutex.
class STRG_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) STRG_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() STRG_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock over SharedMutex.
class STRG_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) STRG_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() STRG_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to strg::Mutex. Wait() is annotated
/// STRG_REQUIRES(mu): the analysis verifies every waiter actually holds the
/// mutex it waits on, which std::condition_variable only checks at runtime
/// (and only in debug builds).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires before returning.
  void Wait(Mutex& mu) STRG_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait protocol, then
    // release the guard without unlocking — ownership stays with the caller
    // exactly as the annotation promises.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Waits until `pred()` holds; `pred` runs with `mu` held.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) STRG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native, pred);
    native.release();
  }

  /// Timed wait: atomically releases `mu`, blocks until notified (or a
  /// spurious wakeup, or `deadline` passes), and re-acquires before
  /// returning. Returns false iff the deadline passed — callers re-check
  /// their predicate either way, exactly as with Wait(). This is what lets
  /// the serving layer wait on a request handle with a per-request deadline
  /// without busy-waiting.
  template <typename TimePoint>
  bool WaitUntil(Mutex& mu, const TimePoint& deadline) STRG_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace strg

#endif  // STRG_UTIL_SYNC_H_
