// ctest-labels: unit
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/em.h"
#include "distance/eged.h"
#include "synth/generator.h"
#include "util/thread_pool.h"

namespace strg {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumThreads(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  pool.ParallelFor(7, 3, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(0, 100,
                                [&](size_t i) {
                                  if (i == 50) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 10, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.ParallelFor(0, 100, [&](size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f = pool.Submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
  std::future<std::string> g =
      pool.Submit([] { return std::string("hello"); });
  EXPECT_EQ(g.get(), "hello");
}

TEST(ThreadPool, SubmitVoidTaskCompletes) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::future<void> f = pool.Submit([&] { ran.fetch_add(1); });
  f.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f = pool.Submit(
      []() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ManyConcurrentSubmitsAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<size_t>> futures;
  futures.reserve(200);
  for (size_t i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

// The destructor drains: a task that submits another while the pool is
// being destroyed still gets it run before the workers join.
TEST(ThreadPool, TaskSubmittedDuringDestructorDrainRuns) {
  std::atomic<bool> destroying{false};
  std::atomic<bool> second_ran{false};
  std::future<void> first;
  std::future<void> second;
  {
    ThreadPool pool(1);
    first = pool.Submit([&] {
      while (!destroying.load()) std::this_thread::yield();
      // Let the destructor stop the pool before submitting.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      second = pool.Submit([&] { second_ran.store(true); });
    });
    destroying.store(true);
  }
  EXPECT_NO_THROW(first.get());
  EXPECT_TRUE(second_ran.load());
  ASSERT_TRUE(second.valid());
  EXPECT_EQ(second.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
}

TEST(ThreadPool, SubmittedTasksWaitableWithDeadline) {
  ThreadPool pool(1);
  // A queued task behind a slow one: wait_for with a generous deadline must
  // succeed instead of busy-waiting.
  std::future<void> slow = pool.Submit(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  std::future<int> queued = pool.Submit([] { return 5; });
  ASSERT_EQ(queued.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(queued.get(), 5);
  slow.get();
}

TEST(ThreadPool, SubmitInterleavesWithParallelFor) {
  ThreadPool pool(3);
  std::future<int> f = pool.Submit([] { return 11; });
  std::atomic<long> sum{0};
  pool.ParallelFor(0, 50,
                   [&](size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 1225);
  EXPECT_EQ(f.get(), 11);
}

TEST(ThreadPool, ParallelEmMatchesSerialEm) {
  synth::SynthParams sp;
  sp.items_per_cluster = 4;
  sp.noise_pct = 8.0;
  auto seqs = synth::GenerateSyntheticOgs(sp).Sequences(
      synth::SynthScaling());
  dist::EgedDistance eged;

  cluster::ClusterParams serial;
  serial.max_iterations = 6;
  cluster::Clustering a = cluster::EmCluster(seqs, 8, eged, serial);

  ThreadPool pool(4);
  cluster::ClusterParams parallel = serial;
  parallel.pool = &pool;
  cluster::Clustering b = cluster::EmCluster(seqs, 8, eged, parallel);

  // Same seeds, same deterministic math: identical results.
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.log_likelihood, b.log_likelihood);
}

}  // namespace
}  // namespace strg
