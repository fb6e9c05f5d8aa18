// Region executor tests: ThreadPool::run_blocks claiming (every block
// exactly once, idle runners never wait on busy ones, late runners never
// call fn), exception and nesting semantics, parallel_for's choice of the
// exception it rethrows, and ThreadPool construction failure. These suites are the ones CI runs under TSan/ASan to race- and
// leak-check the pool internals; higher-level ComputePool region semantics
// live in common_test.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/compute_pool.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PIPAD_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PIPAD_UNDER_SANITIZER 1
#endif
#endif

namespace pipad {
namespace {

// --------------------------------------------------------------- run_blocks

/// Yield until pred() holds and return true, or return false after 10 s, so
/// a broken executor fails the test that waits instead of hanging the suite.
template <typename Pred>
bool spin_until(const Pred& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(RunBlocks, ExecutesEveryBlockExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kBlocks = 257;  // Not a multiple of the pool width.
  std::vector<std::atomic<int>> hits(kBlocks);
  pool.run_blocks(kBlocks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

// With 2 threads and 4 blocks, block 1 spins until block 3 has executed:
// whichever thread claimed block 1 is pinned inside it, so block 3 can only
// run if the other thread keeps claiming blocks nobody has reached yet.
TEST(RunBlocks, IdleRunnerTakesBlocksABusyRunnerHasNotReached) {
  ThreadPool pool(2);
  std::atomic<bool> block3_done{false};
  std::atomic<bool> timed_out{false};
  pool.run_blocks(4, [&](std::size_t i) {
    if (i == 3) {
      block3_done.store(true, std::memory_order_release);
    } else if (i == 1 && !spin_until([&] { return block3_done.load(); })) {
      timed_out.store(true, std::memory_order_relaxed);
    }
  });
  EXPECT_FALSE(timed_out.load()) << "block 3 was never claimed";
}

TEST(RunBlocks, SingleWorkerFallsBackToInlineWithoutSteals) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.run_blocks(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
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

// ------------------------------------------------------------- parallel_for

// The rethrown exception is the lowest-index chunk's, not the first thrown
// in time: chunk 3 throws only after chunk 12 has. Chunked parsers rely on
// this to name the same first bad line at every pool width.
TEST(ParallelFor, RethrowsLowestIndexChunkExceptionNotTheFirstInTime) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 16;  // 4 * size() chunks: one element each.
  std::atomic<bool> late_thrown{false};
  std::vector<std::atomic<int>> hits(kN);
  try {
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 12) {
        late_thrown.store(true, std::memory_order_release);
        throw Error("element 12");
      }
      if (i == 3) {
        EXPECT_TRUE(spin_until(
            [&] { return late_thrown.load(std::memory_order_acquire); }));
        throw Error("element 3");
      }
    });
    FAIL() << "no exception rethrown";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "element 3");
  }
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "element " << i;
  }
}

/// Occupies every worker of a pool with a job that waits for release().
/// The holds give up after a deadline and record it, so an executor that
/// waits for its runners fails a test instead of hanging the suite.
class HoldEveryWorker {
 public:
  explicit HoldEveryWorker(ThreadPool& pool) {
    for (std::size_t w = 0; w < pool.size(); ++w) {
      jobs_.push_back(pool.submit([this] { hold(); }));
    }
    while (holding_.load(std::memory_order_acquire) <
           static_cast<int>(pool.size())) {
      std::this_thread::yield();
    }
  }
  ~HoldEveryWorker() { release(); }

  /// Let the workers go; false when a hold hit its deadline first.
  bool release() {
    const bool in_time = !timed_out_.load(std::memory_order_relaxed);
    release_.store(true, std::memory_order_release);
    for (auto& job : jobs_) {
      if (job.valid()) job.get();
    }
    return in_time;
  }

 private:
  void hold() {
    holding_.fetch_add(1, std::memory_order_acq_rel);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out_.store(true, std::memory_order_relaxed);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::vector<std::future<void>> jobs_;
  std::atomic<int> holding_{0};
  std::atomic<bool> release_{false};
  std::atomic<bool> timed_out_{false};
};

// The calling thread claims blocks too, so a region must not wait for a
// worker to free up: both workers are held until after the region returns.
TEST(RunBlocks, CompletesWhileEveryWorkerIsBusy) {
  ThreadPool pool(2);
  HoldEveryWorker held(pool);
  constexpr std::size_t kBlocks = 16;
  std::vector<std::atomic<int>> hits(kBlocks);
  pool.run_blocks(kBlocks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_TRUE(held.release()) << "run_blocks waited for a busy worker";
  for (std::size_t i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "block " << i;
  }
}

// The caller finishes a region alone while every worker is held, so its
// runner jobs start only after run_blocks returned — when fn may already be
// gone. They must find nothing left to claim.
TEST(RunBlocks, LateRunnerNeverCallsFnAfterTheRegionReturned) {
  ThreadPool pool(4);
  HoldEveryWorker held(pool);
  constexpr std::size_t kBlocks = 16;
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> late_calls{0};
  std::atomic<bool> returned{false};
  pool.run_blocks(kBlocks, [&](std::size_t) {
    if (returned.load(std::memory_order_acquire)) {
      late_calls.fetch_add(1, std::memory_order_relaxed);
    }
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  returned.store(true, std::memory_order_release);
  EXPECT_TRUE(held.release()) << "run_blocks waited for a busy worker";
  pool.shutdown();  // Drains the queue: every late runner has run.
  EXPECT_EQ(calls.load(), kBlocks);
  EXPECT_EQ(late_calls.load(), 0u);
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
      // Worker blocks finish only after the caller's first throw, which
      // also leaves the caller blocks to claim.
      spin_until([&] { return thrown_on_caller.load() > 0; });
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
          } else if (pool->size() > 1) {
            // Runners could otherwise claim every block first; holding
            // them until the caller has one makes its path run every time.
            spin_until([&] { return on_caller.load() > 0; });
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

// Death-test child: cap the address space a little above what the process
// already maps, so a few workers start and a later one fails, then build a
// 200-worker pool. Exits 0 once the constructor's std::system_error
// arrives; a pool that leaves the started workers waiting hangs until the
// alarm kills the child. _Exit skips static destructors: a forked child
// must not join the parent's ComputePool workers, which it does not have.
[[maybe_unused, noreturn]] void build_pool_under_address_cap() {
  long pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t cap =
      static_cast<rlim_t>(pages) * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
      (rlim_t{128} << 20);
  const rlimit limit{cap, cap};
  if (pages <= 0 || setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
  alarm(20);
  try {
    ThreadPool pool(200);
  } catch (const std::system_error&) {
    std::_Exit(0);
  }
  std::_Exit(3);  // Every worker started: the cap never bit.
}

// A worker that cannot be started must not strand the ones that did: the
// constructor joins them and rethrows.
TEST(ThreadPool, SpawnFailureJoinsStartedWorkersAndThrows) {
#ifdef PIPAD_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer shadow memory conflicts with RLIMIT_AS";
#else
  EXPECT_EXIT(build_pool_under_address_cap(), ::testing::ExitedWithCode(0),
              "");
#endif
}

}  // namespace
}  // namespace pipad
