// ComputePool: the process-wide thread pool behind every parallel region.
//
// PiPAD's numeric hot path (aggregation, GEMM, elementwise maps) and the
// host-side preparation (HostLane) share one pool instead of each subsystem
// owning threads. `--threads N` configures it once and scales everything.
//
// Parallel regions are *deterministic by construction*: the block
// partitioning of a region depends only on the problem size and the fixed
// kMinBlockWork floor — never on the pool width or the machine — and every
// block writes disjoint output rows/elements, so results are bit-identical
// for any thread count (including the inline serial fallback). Which worker
// *executes* a block is dynamic: regions run through per-worker Chase-Lev
// deques with randomized-victim work stealing (ThreadPool::run_blocks), so
// a skewed block distribution does not idle the other workers.
// Reductions whose rounding depends on combine order (losses, norms) stay
// serial in their callers.
//
// The numeric math stands in for GPU kernels, which gpusim charges to the
// modeled device from its cost model; the pool's own run time is real wall
// time and never reaches the simulated timeline.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace pipad {

/// Library default pool width: min(hardware_concurrency, 8). Both prep and
/// compute saturate well below the core count of a training node.
std::size_t default_compute_threads();

class ComputePool {
 public:
  /// The process-wide instance. Subsystems hold references to this, never
  /// to the underlying ThreadPool (configure() may replace it).
  static ComputePool& instance();

  /// Resize the pool (0 = default_compute_threads()). No-op when the width
  /// is unchanged. Must not be called while parallel regions are in flight;
  /// trainers call it once at construction.
  void configure(std::size_t threads);

  std::size_t threads();

  /// The underlying pool, for callers that schedule whole jobs on it
  /// (HostLane batches, dataset generation). The reference is valid until
  /// the next configure() with a different width.
  ThreadPool& pool();

  using BlockFn = std::function<void(std::size_t, std::size_t)>;
  using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

  /// Run fn(lo, hi) over contiguous blocks covering [0, n). The block
  /// layout derives from n and total_work only (never the pool width), so
  /// any order-sensitive per-block math is reproducible across thread
  /// counts. Small regions (total_work < min_block_work()) call fn
  /// directly, without type erasure, so tiny ops stay cheap. fn must write
  /// only block-disjoint state. The first block exception is rethrown
  /// after the region drains.
  template <typename F>
  void for_blocks(std::size_t n, std::size_t total_work, F&& fn) {
    if (n == 0) return;
    if (total_work < min_block_work()) {
      fn(std::size_t{0}, n);
      return;
    }
    run_ranges(even_ranges(n, block_count(n, total_work)),
               BlockFn(std::forward<F>(fn)));
  }

  /// Run caller-computed contiguous ranges (e.g. blocks aligned to
  /// destination-row boundaries) as one work-stealing region. Ranges must
  /// be disjoint; determinism requires that they not depend on the pool
  /// width.
  void run_ranges(const Ranges& ranges, const BlockFn& fn);

  /// Number of blocks for_blocks() would use — exposed for tests.
  static std::size_t block_count(std::size_t n, std::size_t total_work);

  /// Exact even split of [0, n) into `blocks` contiguous ranges (the first
  /// n % blocks ranges take one extra element). The one chunking formula
  /// shared by for_blocks() and callers that post-process boundaries
  /// before run_ranges() (e.g. agg_sliced's destination-row alignment).
  static Ranges even_ranges(std::size_t n, std::size_t blocks);

  /// Kept only because bench/e2e/pipad_e2e.cpp still calls it; a no-op.
  void discard_regions() {}

  /// The work-unit floor: below this many scalar operations a region runs
  /// inline, and block_count() targets at least this much work per block.
  /// kMinBlockWork unless pinned.
  static std::size_t min_block_work();
  /// Test-only pin of the floor (exact block counts, forced parallel
  /// paths); 0 restores kMinBlockWork.
  static void set_min_block_work(std::size_t work);

  /// Work per block below which splitting costs more than it gains. A
  /// constant, so the block layout is the same on every machine and in
  /// every process.
  static constexpr std::size_t kMinBlockWork = 16384;
  /// Upper bound on blocks per region — more blocks than the widest
  /// default pool (8), so the stealing executor has slack to rebalance,
  /// and fixed so the layout is independent of the pool width.
  static constexpr std::size_t kMaxBlocks = 32;

 private:
  ComputePool() = default;
  ThreadPool& pool_locked();

  std::mutex pool_mutex_;  ///< Guards pool_ creation/replacement.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace pipad
