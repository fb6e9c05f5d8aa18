// Work-stealing executor tests: WorkDeque (Chase-Lev) semantics and
// concurrent exactly-once claiming, and ThreadPool::run_blocks steal
// behavior. These suites are the ones CI runs under TSan/ASan to race- and
// leak-check the pool internals; higher-level
// ComputePool region semantics live in common_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/compute_pool.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/work_deque.hpp"

namespace pipad {
namespace {

// ------------------------------------------------------------------ WorkDeque

TEST(WorkDeque, OwnerPopIsLifo) {
  WorkDeque d(8);
  d.prefill(10);
  d.prefill(20);
  d.prefill(30);
  std::size_t v = 0;
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 30u);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 20u);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 10u);
  EXPECT_FALSE(d.pop(v));
  EXPECT_TRUE(d.empty());
}

TEST(WorkDeque, ThiefStealIsFifo) {
  WorkDeque d(8);
  d.prefill(1);
  d.prefill(2);
  d.prefill(3);
  std::size_t v = 0;
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 3u);
  EXPECT_FALSE(d.steal(v));
  EXPECT_TRUE(d.empty());
}

TEST(WorkDeque, PopAndStealMeetInTheMiddleWithoutOverlap) {
  WorkDeque d(8);
  for (std::size_t i = 1; i <= 4; ++i) d.prefill(i);
  std::size_t v = 0;
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 1u);  // Oldest.
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 4u);  // Newest.
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 3u);
  EXPECT_FALSE(d.pop(v));
  EXPECT_FALSE(d.steal(v));
}

TEST(WorkDeque, CapacityRoundsUpToPowerOfTwo) {
  WorkDeque d(5);  // Rounds up to 8.
  for (std::size_t i = 0; i < 8; ++i) d.prefill(i);
  EXPECT_THROW(d.prefill(8), Error);  // 9th item exceeds the fixed buffer.
  std::size_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(d.pop(v));
    EXPECT_EQ(v, 7 - i);
  }
}

// The exactly-once contract under contention: one owner popping LIFO races
// several thieves stealing FIFO over a fully preloaded deque; every item
// must be claimed by exactly one thread (no losses, no duplicates).
TEST(WorkDeque, ConcurrentPopAndStealClaimEveryItemExactlyOnce) {
  constexpr std::size_t kItems = 1 << 12;
  constexpr int kThieves = 3;
  WorkDeque d(kItems);
  for (std::size_t i = 0; i < kItems; ++i) d.prefill(i);

  std::vector<std::vector<std::size_t>> claimed(kThieves + 1);
  const auto thief = [&](int t) {
    std::size_t v = 0;
    for (;;) {
      if (d.steal(v)) {
        claimed[t].push_back(v);
      } else if (d.empty()) {
        return;  // steal() may fail spuriously under CAS contention;
                 // only an observed-empty deque ends the loop.
      }
    }
  };
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back(thief, t);
  }
  // This thread plays the owner.
  std::size_t v = 0;
  for (;;) {
    if (d.pop(v)) {
      claimed[kThieves].push_back(v);
    } else if (d.empty()) {
      break;  // pop() only fails when empty or the last item was lost.
    }
  }
  for (auto& th : thieves) th.join();

  std::vector<int> count(kItems, 0);
  std::size_t total = 0;
  for (const auto& c : claimed) {
    total += c.size();
    for (std::size_t id : c) {
      ASSERT_LT(id, kItems);
      ++count[id];
    }
  }
  EXPECT_EQ(total, kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(count[i], 1) << "item " << i;
  }
}

// --------------------------------------------------------------- run_blocks

TEST(RunBlocks, ExecutesEveryBlockExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kBlocks = 257;  // Not a multiple of the pool width.
  std::vector<std::atomic<int>> hits(kBlocks);
  const auto stats = pool.run_blocks(kBlocks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(stats.executed, kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

TEST(RunBlocks, StealDisabledRunsEveryBlockOnItsHomeSlotOnly) {
  ThreadPool pool(4);
  constexpr std::size_t kBlocks = 32;
  std::vector<std::atomic<int>> hits(kBlocks);
  const auto stats = pool.run_blocks(
      kBlocks,
      [&](std::size_t i) {
        if (i == 0) {  // Skew the first block; nobody may rebalance it.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
      },
      /*steal=*/false);
  EXPECT_EQ(stats.executed, kBlocks);
  EXPECT_EQ(stats.stolen, 0u);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

// Deterministic steal: with 2 workers and 4 blocks, slot 1 owns blocks
// {1, 3} and pops them in ascending order (the preload is descending so
// owners run cache-friendly ascending). Block 1 spins until block 3 has
// executed — the only way block 3 can run while slot 1's owner is pinned
// inside block 1 is for the other worker to steal it.
TEST(RunBlocks, IdleWorkerStealsFromABlockedSiblingsDeque) {
  ThreadPool pool(2);
  std::atomic<bool> block3_done{false};
  std::atomic<bool> timed_out{false};
  const auto stats = pool.run_blocks(4, [&](std::size_t i) {
    if (i == 3) {
      block3_done.store(true, std::memory_order_release);
    } else if (i == 1) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!block3_done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true, std::memory_order_relaxed);
          return;  // Fail via the flag below instead of hanging the suite.
        }
        std::this_thread::yield();
      }
    }
  });
  EXPECT_FALSE(timed_out.load()) << "block 3 was never stolen";
  EXPECT_EQ(stats.executed, 4u);
  EXPECT_GE(stats.stolen, 1u);
}

TEST(RunBlocks, SingleWorkerFallsBackToInlineWithoutSteals) {
  ThreadPool pool(1);
  std::vector<int> order;
  const auto stats = pool.run_blocks(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(stats.executed, 5u);
  EXPECT_EQ(stats.stolen, 0u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RunBlocks, RethrowsFirstBlockExceptionAfterDrainingRegion) {
  ThreadPool pool(4);
  constexpr std::size_t kBlocks = 64;
  std::vector<std::atomic<int>> hits(kBlocks);
  EXPECT_THROW(pool.run_blocks(kBlocks,
                               [&](std::size_t i) {
                                 hits[i].fetch_add(
                                     1, std::memory_order_relaxed);
                                 if (i == 7) throw Error("block 7 failed");
                               }),
               Error);
  // The throwing block must not abort the region: every block still ran.
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

TEST(RunBlocks, CalledFromOwnWorkerThrowsInsteadOfDeadlocking) {
  ThreadPool pool(2);
  auto fut = pool.submit([&pool] {
    pool.run_blocks(8, [](std::size_t) {});
  });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

// ---------------------------------------------------------- ComputePool knob

TEST(ComputePoolSteal, DisablingStealingZeroesTheRegionStealCounter) {
  auto& cp = ComputePool::instance();
  cp.configure(4);
  ComputePool::set_min_block_work(1);  // Force the parallel path.
  cp.discard_regions();

  cp.set_stealing(false);
  EXPECT_FALSE(cp.stealing());
  std::vector<double> out(4096, 0.0);
  cp.for_blocks("pool_test_static", out.size(), out.size() * 64,
                [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t i = lo; i < hi; ++i) {
                    out[i] = static_cast<double>(i) * 0.5;
                  }
                });
  auto regions = cp.drain_regions();
  ASSERT_TRUE(regions.count("pool_test_static"));
  EXPECT_GT(regions["pool_test_static"].blocks, 1u);
  EXPECT_EQ(regions["pool_test_static"].steals, 0u);

  cp.set_stealing(true);
  EXPECT_TRUE(cp.stealing());
  ComputePool::set_min_block_work(0);  // Restore the calibrated floor.
}

}  // namespace
}  // namespace pipad
