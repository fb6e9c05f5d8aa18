#include "common/compute_pool.hpp"

#include <algorithm>
#include <atomic>

namespace pipad {

namespace {

std::atomic<std::size_t> g_min_block_work_pin{0};  ///< Test override.

}  // namespace

std::size_t default_compute_threads() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min<std::size_t>(hw, 8);
}

ComputePool& ComputePool::instance() {
  static ComputePool pool;
  return pool;
}

ThreadPool& ComputePool::pool_locked() {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(default_compute_threads());
  return *pool_;
}

ThreadPool& ComputePool::pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_locked();
}

void ComputePool::configure(std::size_t threads) {
  if (threads == 0) threads = default_compute_threads();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ && pool_->size() == threads) return;
  pool_.reset();  // Join the old workers before starting the new ones.
  pool_ = std::make_unique<ThreadPool>(threads);
}

std::size_t ComputePool::threads() { return pool().size(); }

std::size_t ComputePool::min_block_work() {
  const std::size_t pinned =
      g_min_block_work_pin.load(std::memory_order_relaxed);
  return pinned != 0 ? pinned : kMinBlockWork;
}

void ComputePool::set_min_block_work(std::size_t work) {
  g_min_block_work_pin.store(work, std::memory_order_relaxed);
}

std::size_t ComputePool::block_count(std::size_t n, std::size_t total_work) {
  if (n == 0) return 0;
  const std::size_t by_work = total_work / min_block_work();
  return std::min({n, kMaxBlocks, std::max<std::size_t>(1, by_work)});
}

ComputePool::Ranges ComputePool::even_ranges(std::size_t n,
                                             std::size_t blocks) {
  Ranges ranges;
  if (n == 0 || blocks == 0) return ranges;
  ranges.reserve(blocks);
  const std::size_t per = n / blocks;
  const std::size_t extra = n % blocks;
  std::size_t lo = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t hi = lo + per + (b < extra ? 1 : 0);
    ranges.emplace_back(lo, hi);
    lo = hi;
  }
  return ranges;
}

void ComputePool::run_ranges(const Ranges& ranges, const BlockFn& fn) {
  if (ranges.empty()) return;
  ThreadPool& candidate = pool();
  // A nested region (we *are* a worker of this pool) must run inline —
  // submitting would risk deadlock. The inline path walks the same block
  // layout as the parallel one, so order-sensitive per-block math stays
  // bit-identical across thread counts.
  if (ThreadPool::current_pool() == &candidate || ranges.size() == 1 ||
      candidate.size() <= 1) {
    for (const auto& [lo, hi] : ranges) fn(lo, hi);
    return;
  }
  // run_blocks finishes every block before rethrowing the first failure.
  candidate.run_blocks(ranges.size(), [&](std::size_t b) {
    fn(ranges[b].first, ranges[b].second);
  });
}

}  // namespace pipad
