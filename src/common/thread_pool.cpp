#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace pipad {

namespace {
thread_local const ThreadPool* tl_pool = nullptr;
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
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Out of threads (or memory for one): the destructor will not run, so
    // join the workers that did start before the error leaves.
    shutdown();
    throw;
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
/// jobs it submits. Every thread claims blocks from one shared counter, so
/// an idle thread always takes a block no other thread has reached. A
/// runner that a busy pool starts only after the region returned still
/// finds this state alive, sees the counter past n and exits without
/// touching fn — which by then may be gone.
struct Region {
  Region(std::size_t n, const std::function<void(std::size_t)>& f)
      : n(n), fn(&f), remaining(n) {}

  /// Claim and run blocks until the counter passes n, then report them as
  /// finished in one step. Keep claiming after a failure: callers expect
  /// the whole region to settle before the rethrow.
  void run() {
    std::size_t ran = 0;
    std::exception_ptr error;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      ++ran;
      try {
        (*fn)(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(mutex);
    if (error && !first) first = error;
    remaining -= ran;
    if (remaining == 0) done.notify_all();
  }

  /// Block until every block has finished (not until every runner ran).
  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [this] { return remaining == 0; });
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* fn;
  std::atomic<std::size_t> next{0};  ///< The next unclaimed block.
  std::mutex mutex;  ///< Guards remaining and first; pairs with done.
  std::size_t remaining;  ///< Blocks not yet finished.
  std::condition_variable done;
  std::exception_ptr first;
};

}  // namespace

void ThreadPool::run_blocks(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  reject_nested_submit();  // Same deadlock hazard as submit().
  const std::size_t threads = std::min(n, workers_.size());
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // The calling thread claims blocks too, so only threads - 1 runners go
  // through the injector and the region never waits for a worker to free
  // up: the caller alone can finish every block.
  const auto region = std::make_shared<Region>(n, fn);
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {  // Stopping: the caller runs every block below.
      for (std::size_t r = 1; r < threads; ++r) {
        queue_.emplace([region] { region->run(); });
      }
      queued = true;
    }
  }
  if (queued) {
    for (std::size_t r = 1; r < threads; ++r) cv_.notify_one();
  }
  {
    // While the caller runs blocks it counts as inside this pool, so a
    // nested region runs inline there exactly as it does on a worker.
    const ThreadPool* const outer = tl_pool;
    tl_pool = this;
    region->run();
    tl_pool = outer;
  }
  region->wait();
  if (region->first) std::rethrow_exception(region->first);
}

}  // namespace pipad
