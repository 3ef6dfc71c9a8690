// Tests for src/exec (ThreadPool, TaskGroup, ParallelFor) and for
// PartitionCache's derive step on top of the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "partition/partition_cache.h"
#include "test_util.h"

namespace aod {
namespace {

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsEveryTask) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::atomic<int> count{0};
  exec::TaskGroup group(&pool);
  for (int i = 0; i < 1000; ++i) {
    group.Run([&count] { count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), exec::ThreadPool::HardwareConcurrency());
  EXPECT_GE(exec::ThreadPool::HardwareConcurrency(), 1);
}

TEST(ThreadPoolTest, WorkerIndexIsStableAndScoped) {
  exec::ThreadPool pool(3);
  // The calling thread is not a worker.
  EXPECT_EQ(pool.WorkerIndex(), -1);
  std::mutex mutex;
  std::set<int> seen;
  exec::TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.Run([&] {
      int index = pool.WorkerIndex();
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(index);
    });
  }
  group.Wait();
  // Tasks run on pool workers (indices 0..2) or on the joining thread
  // itself when Wait() helps — which reports -1, like any foreign thread.
  for (int index : seen) {
    EXPECT_GE(index, -1);
    EXPECT_LT(index, 3);
  }
  // A second pool's workers are strangers to the first.
  exec::ThreadPool other(1);
  std::atomic<int> cross{0};
  exec::TaskGroup cross_group(&other);
  cross_group.Run([&] { cross.store(pool.WorkerIndex()); });
  cross_group.Wait();
  EXPECT_EQ(cross.load(), -1);
}

TEST(ThreadPoolTest, NestedForkJoinDoesNotDeadlock) {
  // A pool task that itself forks and joins must not deadlock even on a
  // single-worker pool: the joiner helps run queued tasks.
  exec::ThreadPool pool(1);
  std::atomic<int> leaves{0};
  exec::TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.Run([&] {
      exec::TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.Run([&] { leaves.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPoolTest, StartSubmitStopLoopNeverStrandsATask) {
  // Tight create/submit/destroy cycles aimed at the shutdown protocol:
  // the destructor's stop races tasks that are still *resubmitting* new
  // work from inside the pool. Every task — including the resubmitted
  // generation — must run before join returns; a stranded worker (lost
  // wakeup) hangs the loop, a dropped task fails the count.
  for (int iter = 0; iter < 200; ++iter) {
    std::atomic<int> runs{0};
    {
      exec::ThreadPool pool(3);
      for (int i = 0; i < 16; ++i) {
        pool.Submit([&runs, &pool] {
          runs.fetch_add(1);
          pool.Submit([&runs] { runs.fetch_add(1); });
        });
      }
      // Destructor entered immediately: stop_ is set while first-
      // generation tasks are mid-flight and still submitting.
    }
    ASSERT_EQ(runs.load(), 32) << "iteration " << iter;
  }
}

TEST(TaskGroupTest, NullPoolRunsInline) {
  exec::TaskGroup group(nullptr);
  int runs = 0;
  group.Run([&runs] { ++runs; });
  EXPECT_EQ(runs, 1);  // already executed, before Wait
  group.Wait();
  EXPECT_EQ(runs, 1);
}

// ----------------------------------------------------------- ParallelFor --

TEST(ParallelForTest, ExecutesEachIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  int64_t executed = exec::ParallelFor(
      &pool, 0, 257, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  EXPECT_EQ(executed, 257);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, WorksWithoutPoolAndWithGrain) {
  std::vector<int> hits(100, 0);
  exec::ParallelForOptions options;
  options.grain = 7;
  int64_t executed = exec::ParallelFor(
      nullptr, 0, 100, [&](int64_t i) { hits[static_cast<size_t>(i)]++; },
      options);
  EXPECT_EQ(executed, 100);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, EmptyRange) {
  exec::ThreadPool pool(2);
  int64_t executed =
      exec::ParallelFor(&pool, 5, 5, [](int64_t) { FAIL(); });
  EXPECT_EQ(executed, 0);
}

TEST(ParallelForTest, CancelStopsIssuingIterations) {
  exec::ThreadPool pool(2);
  std::atomic<int64_t> done{0};
  exec::ParallelForOptions options;
  options.cancel = [&done] { return done.load() >= 10; };
  int64_t executed = exec::ParallelFor(
      &pool, 0, 1000000, [&](int64_t) { done.fetch_add(1); }, options);
  EXPECT_LT(executed, 1000000);
  EXPECT_EQ(executed, done.load());
}

// ------------------------------------------- PartitionCache derive step --

TEST(ConcurrentPartitionCacheTest, PooledDeriveMatchesSerialGetExactly) {
  // Level by level, as the driver derives: steps on 8 workers build every
  // partition byte-identical to serial Gets in level order, with the same
  // products (a level's plans see only lower levels either way).
  EncodedTable t = testing_util::RandomEncodedTable(300, 5, 4, 99);
  PartitionCache serial(&t);
  PartitionCache parallel(&t);
  exec::ThreadPool pool(8);
  for (int size = 2; size <= 5; ++size) {
    std::vector<AttributeSet> level;
    for (uint64_t bits = 0; bits < 32; ++bits) {
      if (AttributeSet(bits).size() == size) level.push_back(AttributeSet(bits));
    }
    for (AttributeSet set : level) serial.Get(set);
    parallel.Derive(level, &pool);
  }
  for (uint64_t bits = 0; bits < 32; ++bits) {
    ASSERT_TRUE(parallel.Contains(AttributeSet(bits)));
    EXPECT_EQ(parallel.Find(AttributeSet(bits))->ToString(),
              serial.Find(AttributeSet(bits))->ToString());
  }
  EXPECT_EQ(parallel.products_computed(), serial.products_computed());
}

TEST(ConcurrentPartitionCacheTest, RepeatedKeyDerivedOnce) {
  EncodedTable t = testing_util::RandomEncodedTable(500, 4, 3, 41);
  PartitionCache cache(&t);
  exec::ThreadPool pool(8);
  const AttributeSet key = AttributeSet::Of({0, 1, 2, 3});
  EXPECT_EQ(cache.Derive(std::vector<AttributeSet>(64, key), &pool).keys, 1);
  // One plan from the singletons: a base extended by three products.
  EXPECT_EQ(cache.planner_derivations(), 1);
  EXPECT_EQ(cache.products_computed(), 3);
  EXPECT_EQ(cache.Derive({key}, &pool).keys, 0);  // resident: not again
}

TEST(ConcurrentPartitionCacheTest, EvictionThenPooledRederive) {
  EncodedTable t = testing_util::RandomEncodedTable(200, 4, 3, 77);
  PartitionCache cache(&t);
  exec::ThreadPool pool(8);
  const std::vector<AttributeSet> keys = {
      AttributeSet::Of({0, 1}), AttributeSet::Of({2, 3}),
      AttributeSet::Of({0, 1, 2}), AttributeSet::Of({1, 2, 3})};
  cache.Derive(keys, &pool);
  std::vector<std::string> before;
  for (AttributeSet key : keys) before.push_back(cache.Find(key)->ToString());
  const int64_t products = cache.products_computed();
  cache.EnforceBudget(1);  // below the base floor: every derived key goes
  // Evicted keys leave the catalog too, so the plans repeat.
  EXPECT_EQ(cache.Derive(keys, &pool).keys, static_cast<int64_t>(keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(cache.Find(keys[i])->ToString(), before[i]);
  }
  EXPECT_EQ(cache.products_computed(), 2 * products);
}

}  // namespace
}  // namespace aod
