// Work-stealing executor tests: WorkDeque (Chase-Lev) semantics and
// concurrent exactly-once claiming, and ThreadPool::run_blocks steal
// behavior. These suites are the ones CI runs under TSan/ASan to race- and
// leak-check the pool internals; higher-level
// ComputePool region semantics live in common_test.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
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

// The calling thread runs slot 0 and steals the rest, so a region must not
// wait for a worker to free up. Both workers are held by jobs that wait on
// a release flag; the region has to finish before the test releases them.
// The holds give up after a deadline and set a flag, so an executor that
// waits for its runners fails here instead of hanging the suite.
TEST(RunBlocks, CompletesWhileEveryWorkerIsBusy) {
  ThreadPool pool(2);
  std::atomic<int> holding{0};
  std::atomic<bool> release{false};
  std::atomic<bool> timed_out{false};
  const auto hold = [&] {
    holding.fetch_add(1, std::memory_order_acq_rel);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true, std::memory_order_relaxed);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  auto first = pool.submit(hold);
  auto second = pool.submit(hold);
  while (holding.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }
  constexpr std::size_t kBlocks = 16;
  std::vector<std::atomic<int>> hits(kBlocks);
  const auto stats = pool.run_blocks(kBlocks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  const bool finished_while_held = !timed_out.load();
  release.store(true, std::memory_order_release);
  first.get();
  second.get();
  EXPECT_TRUE(finished_while_held)
      << "run_blocks waited for a busy worker";
  EXPECT_EQ(stats.executed, kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

TEST(RunBlocks, CallingThreadBlockExceptionRethrownAfterEveryBlockRan) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  constexpr std::size_t kBlocks = 8;
  std::vector<std::atomic<int>> hits(kBlocks);
  std::atomic<int> thrown_on_caller{0};
  try {
    pool.run_blocks(kBlocks, [&](std::size_t i) {
      if (std::this_thread::get_id() == caller) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        thrown_on_caller.fetch_add(1, std::memory_order_relaxed);
        throw Error("calling-thread block failed");
      }
      // Worker blocks finish well after the caller's first throw.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    ADD_FAILURE() << "run_blocks did not rethrow";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("calling-thread block failed"),
              std::string::npos);
    // Rethrown only after the region drained: every block already ran.
    for (std::size_t i = 0; i < kBlocks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "block " << i;
    }
  }
  EXPECT_GE(thrown_on_caller.load(), 1) << "no block ran on the caller";
}

// A block the calling thread runs counts as inside the pool, so a region it
// starts runs inline there — exactly like one started on a worker — and the
// output matches the single-thread run bit for bit.
TEST(RunBlocks, NestedRegionFromACallingThreadBlockIsBitIdentical) {
  ComputePool::set_min_block_work(16);
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kCols = 48;
  const auto compute = [&](int& nested_on_caller) {
    ThreadPool* const pool = &ComputePool::instance().pool();
    const auto caller = std::this_thread::get_id();
    std::atomic<int> on_caller{0};
    std::vector<float> out(kRows * kCols);
    ComputePool::instance().for_blocks(
        kRows, kRows * kCols, [&](std::size_t lo, std::size_t hi) {
          if (std::this_thread::get_id() == caller && pool->size() > 1) {
            EXPECT_EQ(ThreadPool::current_pool(), pool);
            on_caller.fetch_add(1, std::memory_order_relaxed);
          }
          for (std::size_t r = lo; r < hi; ++r) {
            ComputePool::instance().for_blocks(
                kCols, kCols * 64, [&](std::size_t c0, std::size_t c1) {
                  for (std::size_t c = c0; c < c1; ++c) {
                    float acc = static_cast<float>(r) * 0.5f;
                    for (int k = 0; k < 64; ++k) {
                      acc = acc * 0.999f +
                            0.001f * static_cast<float>(c + k);
                    }
                    out[r * kCols + c] = acc;
                  }
                });
          }
        });
    nested_on_caller = on_caller.load();
    return out;
  };
  int nested_on_caller = 0;
  ComputePool::instance().configure(1);
  const std::vector<float> serial = compute(nested_on_caller);
  ComputePool::instance().configure(4);
  const std::vector<float> parallel = compute(nested_on_caller);
  ComputePool::instance().configure(0);
  ComputePool::set_min_block_work(0);
  EXPECT_GE(nested_on_caller, 1) << "no outer block ran on the caller";
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(serial[i]),
              std::bit_cast<std::uint32_t>(parallel[i]))
        << "elem " << i;
  }
}

TEST(RunBlocks, CalledFromOwnWorkerThrowsInsteadOfDeadlocking) {
  ThreadPool pool(2);
  auto fut = pool.submit([&pool] {
    pool.run_blocks(8, [](std::size_t) {});
  });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

}  // namespace
}  // namespace pipad
