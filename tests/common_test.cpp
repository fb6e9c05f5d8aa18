// common/ tests: RNG reproducibility and distribution, arithmetic helpers,
// thread-pool semantics, error machinery.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>

#include "common/compute_pool.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/util.hpp"
#include "tensor/normal.hpp"

namespace pipad {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, UniformDoublesCoverUnitInterval) {
  Rng r(9);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sum += v;
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng r(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  std::vector<float> z(n);
  ops::fill_normal(r, z.data(), z.size());
  for (const double v : z) {
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Util, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 8), 1);
  EXPECT_EQ(ceil_div(0, 8), 0);
}

TEST(Util, RoundUp) {
  EXPECT_EQ(round_up(10, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
}

TEST(Util, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
}

TEST(Util, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KB");
}

TEST(Util, GeomeanOfEqualValuesIsTheValue) {
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSmallerThanPoolCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  std::atomic<std::size_t> seen{99};
  pool.parallel_for(1, [&](std::size_t i) {
    hits.fetch_add(1);
    seen.store(i);
  });
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(seen.load(), 0u);
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.parallel_for(0, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 0);
}

TEST(ThreadPool, ParallelForUnevenSplitCoversRangeExactlyOnce) {
  // n chosen so n % chunks != 0 for a 4-wide pool (chunks = 16): the
  // remainder must be spread over the leading chunks, not dropped.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(19);
  pool.parallel_for(19, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesReturnValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForRethrowsExceptionAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i % 8 == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // parallel_for drained every chunk before rethrowing, so the pool is
  // fully reusable afterwards.
  std::vector<std::atomic<int>> hits(32);
  pool.parallel_for(32, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto f = pool.submit([&ran] { ran.fetch_add(1); });
  pool.shutdown();
  f.get();  // Queued work drains before the workers exit.
  EXPECT_EQ(ran.load(), 1);
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  pool.shutdown();  // Idempotent.
}

TEST(ThreadPool, NestedSubmitFromOwnWorkerThrowsInsteadOfDeadlocking) {
  ThreadPool pool(2);
  // A worker that submits to its own pool and waits can deadlock once every
  // worker does the same; the pool must reject it eagerly.
  auto outer = pool.submit([&pool] {
    EXPECT_EQ(ThreadPool::current_pool(), &pool);
    try {
      pool.submit([] {});
      ADD_FAILURE() << "nested submit did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("worker thread of the same pool"),
                std::string::npos);
    }
  });
  outer.get();
  // Submitting to a *different* pool from a worker stays legal.
  ThreadPool other(1);
  auto cross = pool.submit([&other] {
    return other.submit([] { return 7; }).get();
  });
  EXPECT_EQ(cross.get(), 7);
  // The pool survives the rejected submit.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

// ---------- ComputePool ----------

TEST(ComputePool, BlockLayoutIsIndependentOfThreadCount) {
  // Determinism across --threads rests on this: the layout derives from the
  // problem size and the fixed work floor only.
  ComputePool::set_min_block_work(0);
  ASSERT_EQ(ComputePool::min_block_work(), 16384u);
  const auto blocks_at = [](std::size_t n, std::size_t work) {
    return ComputePool::block_count(n, work);
  };
  EXPECT_EQ(blocks_at(1000, 100), 1u);        // Tiny work: serial.
  EXPECT_EQ(blocks_at(1000, 1 << 30), 32u);   // Capped at kMaxBlocks.
  EXPECT_EQ(blocks_at(5, 1 << 30), 5u);       // Never more blocks than items.
  EXPECT_EQ(blocks_at(1000, 3 * 16384), 3u);  // total_work / floor.
  // The layout must not change when the pool is reconfigured.
  ComputePool::instance().configure(1);
  const std::size_t reference = blocks_at(1000, 1 << 20);
  const auto reference_ranges = ComputePool::even_ranges(1000, reference);
  for (std::size_t t : {2u, 8u}) {
    ComputePool::instance().configure(t);
    EXPECT_EQ(blocks_at(1000, 1 << 20), reference);
    EXPECT_EQ(ComputePool::even_ranges(1000, reference), reference_ranges);
    EXPECT_EQ(ComputePool::instance().threads(), t);
  }
  ComputePool::instance().configure(0);
}

TEST(ComputePool, MinBlockWorkIsFixedUnlessPinned) {
  // The floor is a constant, not a per-process measurement, so the block
  // layout is the same on every machine and at every pool width.
  ComputePool::set_min_block_work(0);
  EXPECT_EQ(ComputePool::min_block_work(), ComputePool::kMinBlockWork);
  ComputePool::instance().configure(8);
  EXPECT_EQ(ComputePool::min_block_work(), ComputePool::kMinBlockWork);
  ComputePool::instance().configure(0);
  // The pin overrides, 0 restores.
  ComputePool::set_min_block_work(4096);
  EXPECT_EQ(ComputePool::min_block_work(), 4096u);
  ComputePool::set_min_block_work(0);
  EXPECT_EQ(ComputePool::min_block_work(), ComputePool::kMinBlockWork);
}

TEST(ComputePool, ForBlocksCoversRangeExactlyOnceForAnyWidth) {
  for (std::size_t t : {1u, 3u, 8u}) {
    ComputePool::instance().configure(t);
    std::vector<std::atomic<int>> hits(4097);
    ComputePool::instance().for_blocks(
        hits.size(), 1 << 20, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ComputePool, NestedRegionFallsBackToInlineExecution) {
  ComputePool::instance().configure(2);
  std::atomic<int> inner_hits{0};
  // A region launched from a worker of the same pool must run inline
  // (submitting would risk deadlock) and still cover the range.
  ComputePool::instance().for_blocks(
      4, 1 << 20, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          ComputePool::instance().for_blocks(
              100, 1 << 20, [&](std::size_t l2, std::size_t h2) {
                inner_hits.fetch_add(static_cast<int>(h2 - l2));
              });
        }
      });
  EXPECT_EQ(inner_hits.load(), 400);
}

TEST(ComputePool, RethrowsBlockExceptionAfterDraining) {
  auto& cp = ComputePool::instance();
  cp.configure(4);
  EXPECT_THROW(
      cp.for_blocks(64, 1 << 20,
                    [&](std::size_t lo, std::size_t) {
                      if (lo == 0) throw std::runtime_error("block failed");
                    }),
      std::runtime_error);
  // Pool is reusable afterwards.
  std::atomic<int> ok{0};
  cp.for_blocks(64, 1 << 20,
                [&](std::size_t lo, std::size_t hi) {
                  ok.fetch_add(static_cast<int>(hi - lo));
                });
  EXPECT_EQ(ok.load(), 64);
}

TEST(Errors, CheckThrowsWithContext) {
  try {
    PIPAD_CHECK_MSG(1 == 2, "custom detail " << 99);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom detail 99"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Errors, OomIsAnError) {
  EXPECT_THROW(throw OutOfMemoryError("x"), Error);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Compound assignment on a volatile lvalue is deprecated in C++20
  // (-Wvolatile); split the read and the write to keep -Werror clean.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.elapsed_us(), 0.0);
  (void)sink;
}

}  // namespace
}  // namespace pipad
