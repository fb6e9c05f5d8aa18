#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/work_deque.hpp"

namespace pipad {

namespace {
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
    workers_.emplace_back([this] { worker_loop(); });
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

void ThreadPool::worker_loop() {
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
  reject_nested_submit();
  // With one worker or one element there is nothing to overlap: a job
  // would only wait behind whatever the worker is running (streamed prep
  // jobs, at --threads 1), so the loop runs inline.
  if (n == 1 || workers_.size() == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Chunked static partition; the chunk count tracks pool width to bound
  // scheduling overhead on small n. The first n % chunks chunks take one
  // extra element, so every chunk is non-empty and the sizes are exact.
  // Each chunk is an injector job, so the calling thread only waits: these
  // callers (generation, ingestion, partition builds, trace analysis)
  // allocate heavily, and running their chunks on the caller too raised a
  // graph-heavy training's peak RSS from 315 to 395 MB.
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  const std::size_t per = n / chunks;
  const std::size_t extra = n % chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  std::exception_ptr first;
  for (std::size_t c = 0; c < chunks; ++c) {
    try {
      futs.push_back(submit([&fn, c, per, extra] {
        const std::size_t lo = c * per + std::min(c, extra);
        const std::size_t hi = lo + per + (c < extra ? 1 : 0);
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      }));
    } catch (...) {
      // Pool stopping: the submitted chunks reference fn, so they are
      // still joined below before the error surfaces.
      first = std::current_exception();
      break;
    }
  }
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

namespace {

/// One run_blocks() region, shared by the launching thread and the runner
/// jobs it submits. A runner that a busy pool starts only after the region
/// returned still finds this state alive, sees every deque empty and exits
/// without touching fn — which by then may be gone.
struct Region {
  Region(std::size_t n, std::size_t slots,
         const std::function<void(std::size_t)>& f)
      : deques(slots), fn(&f), remaining(n) {
    // Block i homes on slot i % slots, pushed in descending order so the
    // owner pops (LIFO) in ascending block order — cache-friendly for
    // row-contiguous blocks — while thieves take (FIFO) from the far end.
    // The injector mutex publishes the filled deques to the workers.
    for (std::size_t s = 0; s < slots; ++s) {
      deques[s] = std::make_unique<WorkDeque>(n / slots + 1);
      for (std::size_t i = ((n - 1 - s) / slots) * slots + s;; i -= slots) {
        deques[s]->prefill(i);
        if (i < slots) break;
      }
    }
  }

  /// Slot s's runner: drain its own deque, then (with `steal`) steal from
  /// randomized victims, then sweep every victim until it is seen empty. A
  /// steal only fails empty-handed when another thread claimed that item,
  /// so the sweep ends, and a stealing runner exits only once every block
  /// is claimed — the caller never waits for a runner that has not started.
  void run(std::size_t s, bool steal) {
    const std::size_t slots = deques.size();
    std::uint64_t rng = 0x9E3779B97F4A7C15ull ^ (s + 1);
    std::size_t id = 0;
    for (;;) {
      bool have = deques[s]->pop(id);
      bool was_steal = false;
      if (!have && steal) {
        for (std::size_t tries = 0; tries < 2 * slots && !have; ++tries) {
          const std::size_t v =
              (s + 1 + next_rand(rng) % (slots - 1)) % slots;
          have = deques[v]->steal(id);
        }
        for (std::size_t v = 0; v < slots && !have; ++v) {
          while (v != s && !have && !deques[v]->empty()) {
            have = deques[v]->steal(id);
          }
        }
        was_steal = have;
      }
      if (!have) return;
      if (was_steal) stolen.fetch_add(1, std::memory_order_relaxed);
      // Keep draining after a failure: callers expect the whole region to
      // settle before the rethrow.
      std::exception_ptr error;
      try {
        (*fn)(id);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (error && !first) first = error;
      if (--remaining == 0) done.notify_all();
    }
  }

  /// Block until every block has finished (not until every runner ran).
  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [this] { return remaining == 0; });
  }

  std::vector<std::unique_ptr<WorkDeque>> deques;
  const std::function<void(std::size_t)>* fn;
  std::atomic<std::size_t> stolen{0};
  std::mutex mutex;  ///< Guards remaining and first; pairs with done.
  std::size_t remaining;  ///< Blocks not yet finished.
  std::condition_variable done;
  std::exception_ptr first;
};

}  // namespace

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

  // The calling thread is slot 0's runner, so only slots - 1 runners go
  // through the injector and the region never waits for a worker to free
  // up: with stealing on, the caller alone can finish every block.
  const auto region = std::make_shared<Region>(n, slots, fn);
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {  // Stopping: the caller steals every slot below.
      for (std::size_t s = 1; s < slots; ++s) {
        queue_.emplace([region, s, steal] { region->run(s, steal); });
      }
      queued = true;
    }
  }
  if (queued) {
    for (std::size_t s = 1; s < slots; ++s) cv_.notify_one();
  }
  {
    // While the caller runs blocks it counts as inside this pool, so a
    // nested region runs inline there exactly as it does on a worker.
    const ThreadPool* const outer = tl_pool;
    tl_pool = this;
    region->run(0, steal || !queued);
    tl_pool = outer;
  }
  region->wait();
  stats.executed = n;
  stats.stolen = region->stolen.load(std::memory_order_relaxed);
  if (region->first) std::rethrow_exception(region->first);
  return stats;
}

}  // namespace pipad
