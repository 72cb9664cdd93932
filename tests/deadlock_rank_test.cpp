// ctest-labels: unit
//
// Runtime leg of the deadlock-freedom layer (DESIGN.md §15): under
// STRG_DEADLOCK_CHECK=ON an out-of-order acquisition must abort with a
// rank-inversion diagnosis, legal (strictly increasing) chains must run
// clean, and the checker itself must never leak state through TryLock
// failures or unranked locks. Compiled into every build: when the option is
// OFF the death-test half compiles out and the remaining tests document
// that the no-op build imposes no ordering at all.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/sync.h"

namespace strg {
namespace {

TEST(DeadlockRank, LegalIncreasingChainRunsClean) {
  // The deepest legal write chain from the LockRank table, in order.
  Mutex ingest{LockRank::kIngestSharded};
  Mutex writer{LockRank::kEngineWriter};
  Mutex store{LockRank::kRecordStore};
  Mutex cache{LockRank::kBufferCache};
  Mutex pool{LockRank::kThreadPool};
  MutexLock l1(ingest);
  MutexLock l2(writer);
  MutexLock l3(store);
  MutexLock l4(cache);
  MutexLock l5(pool);
  SUCCEED();
}

TEST(DeadlockRank, UnrankedLocksAreExemptInAnyOrder) {
  Mutex a;  // default-constructed: kUnranked
  Mutex b{LockRank::kUnranked};
  Mutex ranked{LockRank::kSnapshot};
  MutexLock l1(ranked);
  MutexLock l2(a);  // unranked under a ranked lock: fine
  MutexLock l3(b);
  SUCCEED();
}

TEST(DeadlockRank, SharedAcquisitionJoinsTheHierarchy) {
  SharedMutex map{LockRank::kShardMap};
  Mutex writer{LockRank::kEngineWriter};
  ReaderLock r(map);
  MutexLock w(writer);  // kShardMap(300) -> kEngineWriter(400): increasing
  SUCCEED();
}

#if STRG_DEADLOCK_CHECK_ENABLED

TEST(DeadlockRankDeathTest, InversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex done{LockRank::kPoolDone};
  Mutex error{LockRank::kPoolError};
  EXPECT_DEATH(
      {
        MutexLock outer(done);   // 1300
        MutexLock inner(error);  // 1200 while holding 1300: inversion
      },
      "LOCK RANK INVERSION.*kPoolError.*kPoolDone");
}

TEST(DeadlockRankDeathTest, SameRankReacquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two distinct mutexes at one rank: the hierarchy demands STRICTLY
  // increasing, so rank ties are rejected too (they would allow an
  // AB/BA cycle between two threads).
  Mutex a{LockRank::kBufferCache};
  Mutex b{LockRank::kBufferCache};
  EXPECT_DEATH(
      {
        MutexLock la(a);
        MutexLock lb(b);
      },
      "LOCK RANK INVERSION.*kBufferCache.*kBufferCache");
}

TEST(DeadlockRankDeathTest, SharedThenLowerExclusiveAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedMutex map{LockRank::kShardMap};       // 300
  Mutex ingest{LockRank::kIngestSharded};     // 100
  EXPECT_DEATH(
      {
        ReaderLock r(map);
        MutexLock w(ingest);
      },
      "LOCK RANK INVERSION.*kIngestSharded.*kShardMap");
}

TEST(DeadlockRank, FailedTryLockDoesNotLeakARank) {
  // A worker holds the high-rank lock so the main thread's TryLock fails;
  // the checker must pop the speculative push, or the subsequent LOWER-rank
  // acquisition below would abort as an inversion.
  Mutex high{LockRank::kPoolDone};
  Mutex low{LockRank::kThreadPool};
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread worker([&] {
    high.Lock();
    held.store(true);
    while (!release.load()) std::this_thread::yield();
    high.Unlock();
  });
  while (!held.load()) std::this_thread::yield();
  EXPECT_FALSE(high.TryLock());
  {
    MutexLock l(low);  // would abort if the failed TryLock leaked kPoolDone
  }
  release.store(true);
  worker.join();
}

TEST(DeadlockRank, RanksClearAfterReleaseSoLowerIsLegalAgain) {
  Mutex high{LockRank::kPoolDone};
  Mutex low{LockRank::kIngestSharded};
  { MutexLock l(high); }
  MutexLock l2(low);  // high was released: no ordering constraint remains
  SUCCEED();
}

#else  // !STRG_DEADLOCK_CHECK_ENABLED

TEST(DeadlockRank, NoOpBuildImposesNoOrdering) {
  // Release builds carry no rank state: an inverted order on DISTINCT
  // mutexes runs clean within one thread (the analyzer and the checked
  // build are what reject it repo-wide).
  Mutex done{LockRank::kPoolDone};
  Mutex error{LockRank::kPoolError};
  MutexLock outer(done);
  MutexLock inner(error);
  SUCCEED();
}

#endif  // STRG_DEADLOCK_CHECK_ENABLED

}  // namespace
}  // namespace strg
