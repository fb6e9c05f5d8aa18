#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/work_deque.hpp"

namespace pipad {

namespace {
thread_local std::size_t tl_worker_index = ThreadPool::npos;
thread_local const ThreadPool* tl_pool = nullptr;

/// xorshift64*: cheap per-runner victim randomization. Seeded from the slot
/// index only — victim order varies run to run with timing anyway, and a
/// deterministic seed keeps the executor free of global RNG state.
inline std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s * 0x2545F4914F6CDD1Dull;
}
}  // namespace

std::size_t ThreadPool::worker_index() { return tl_worker_index; }

const ThreadPool* ThreadPool::current_pool() { return tl_pool; }

void ThreadPool::reject_nested_submit() const {
  if (tl_pool == this) {
    throw std::runtime_error(
        "ThreadPool::submit called from a worker thread of the same pool; "
        "a worker waiting on its own pool can deadlock — run nested work "
        "inline (see ThreadPool::current_pool)");
  }
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_worker_index = index;
  tl_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Chunked static partition; the chunk count tracks pool width to bound
  // scheduling overhead on small n. The first n % chunks chunks take one
  // extra element, so every chunk is non-empty and the sizes are exact —
  // no empty trailing chunks to skip. Chunks execute through the stealing
  // region executor, so a slow chunk (skewed job sizes) is backfilled by
  // idle workers instead of serializing the tail.
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  const std::size_t per = n / chunks;
  const std::size_t extra = n % chunks;
  run_blocks(chunks, [&](std::size_t c) {
    const std::size_t lo = c * per + std::min(c, extra);
    const std::size_t hi = lo + per + (c < extra ? 1 : 0);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

ThreadPool::StealStats ThreadPool::run_blocks(
    std::size_t n, const std::function<void(std::size_t)>& fn, bool steal) {
  StealStats stats;
  if (n == 0) return stats;
  reject_nested_submit();  // Same deadlock hazard as submit().
  const std::size_t slots = std::min(n, workers_.size());
  if (slots <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    stats.executed = n;
    return stats;
  }

  // Preload: block i homes on slot i % slots, pushed in descending order so
  // the owner pops (LIFO) in ascending block order — cache-friendly for
  // row-contiguous blocks — while thieves take (FIFO) from the far end.
  // This all happens before any runner task is submitted; the injector
  // mutex publishes the deques to the workers.
  std::vector<std::unique_ptr<WorkDeque>> deques(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    deques[s] = std::make_unique<WorkDeque>(n / slots + 1);
    for (std::size_t i = ((n - 1 - s) / slots) * slots + s;;
         i -= slots) {
      deques[s]->prefill(i);
      if (i < slots) break;
    }
  }

  std::atomic<std::size_t> stolen{0};
  std::mutex error_mutex;
  std::exception_ptr first;
  const auto record_error = [&] {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!first) first = std::current_exception();
  };

  const auto runner = [&, slots, steal](std::size_t s) {
    std::uint64_t rng = 0x9E3779B97F4A7C15ull ^ (s + 1);
    std::size_t id = 0;
    for (;;) {
      bool have = deques[s]->pop(id);
      bool was_steal = false;
      if (!have && steal) {
        // Randomized victims first (spreads contention), then one
        // deterministic sweep so a runner only exits when every deque was
        // seen empty — any still-missing block is already claimed.
        for (std::size_t tries = 0; tries < 2 * slots && !have; ++tries) {
          const std::size_t v =
              (s + 1 + next_rand(rng) % (slots - 1)) % slots;
          have = deques[v]->steal(id);
        }
        for (std::size_t v = 0; v < slots && !have; ++v) {
          if (v != s) have = deques[v]->steal(id);
        }
        was_steal = have;
      }
      if (!have) return;
      if (was_steal) stolen.fetch_add(1, std::memory_order_relaxed);
      try {
        fn(id);
      } catch (...) {
        // Keep draining: blocks must not outlive fn's frame, and callers
        // expect the whole region to settle before the rethrow — stolen or
        // not.
        record_error();
      }
    }
  };

  std::vector<std::future<void>> futs;
  futs.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    try {
      futs.push_back(submit([&runner, s] { runner(s); }));
    } catch (...) {
      // Pool shutting down mid-region: stop submitting; the leftover
      // blocks are drained inline below, after the submitted runners —
      // which reference this frame — are joined.
      break;
    }
  }
  for (auto& f : futs) f.get();  // Runners trap fn's exceptions themselves.
  // Every block must run exactly once even if some runner never started
  // (shutdown race) or stealing was off: claim leftovers through the
  // thief-side CAS, which stays correct now that no runner is active.
  std::size_t id = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    while (deques[s]->steal(id)) {
      try {
        fn(id);
      } catch (...) {
        record_error();
      }
    }
  }
  stats.executed = n;
  stats.stolen = stolen.load(std::memory_order_relaxed);
  if (first) std::rethrow_exception(first);
  return stats;
}

}  // namespace pipad
