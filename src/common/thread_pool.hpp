// Fixed-size thread pool for CPU-side host work.
//
// PiPAD's runtime overlaps CPU-side preparation (graph slicing, overlap
// extraction, partition assembly) with simulated device work (§4.3). The pool
// executes that host work for real; what it costs on the modeled timeline
// comes from host/prep_cost.hpp, never from the pool's own run time.
//
// Scheduling is two-level:
//   - submit()/parallel_for() enqueue whole jobs on a shared injector
//     queue (mutex + condition variable — jobs are coarse, so the injector
//     is touched a handful of times per frame and is never the bottleneck).
//     The calling thread never runs them: parallel_for's callers allocate
//     heavily, and keeping their chunks on the workers is what holds a
//     graph-heavy training's peak RSS at ~315 MB instead of ~395 MB;
//   - run_blocks() executes a *region* of fine-grained blocks: the
//     launching thread and at most size() - 1 runner jobs each claim the
//     next unclaimed block from one shared atomic counter until none is
//     left, so an idle thread always takes a block no busy thread has
//     reached. The launching thread claims blocks itself and the region
//     returns once every block has finished — so a region never waits
//     behind coarse jobs queued ahead of its runners, while the number of
//     threads working on it stays at the pool width. Which thread executes
//     a block is dynamic, but the *set* of blocks never depends on the
//     pool width, which is what keeps region outputs bit-identical across
//     thread counts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pipad {

class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (min 1). Throws
  /// std::system_error when a worker cannot be started, after joining the
  /// ones that did.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Stop accepting work and join the workers after the queue drains.
  /// Idempotent; submit() after shutdown() throws.
  void shutdown();

  /// The pool the current thread is working for — a worker's own pool, or
  /// the pool of the run_blocks() region the calling thread is running
  /// blocks of — or nullptr otherwise. Callers that might run inside a pool
  /// (nested parallel regions) use this to fall back to inline execution
  /// instead of deadlocking on their own pool.
  static const ThreadPool* current_pool();

  /// Enqueue a task; the returned future yields its result (or rethrows the
  /// exception the task exited with). Submitting from a worker thread of
  /// this same pool throws: a worker that enqueues and then waits on its
  /// own pool can deadlock once every worker does the same, so nested work
  /// must run inline instead.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    reject_nested_submit();
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool is stopping");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n) as at most 4 * size() contiguous chunk jobs
  /// on the workers and wait for completion; the calling thread runs none
  /// of them (see file header) unless n == 1 or size() == 1, when the loop
  /// runs inline. A chunk stops at the first exception it throws; after
  /// every chunk has finished, the exception of the lowest-index chunk that
  /// threw is rethrown, whichever chunk threw first in time. So when each
  /// fn(i) throws or not independently of the others, the rethrown
  /// exception is the lowest such i's at every pool width. Must not be
  /// called from a worker of this pool, like submit().
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Execute fn(i) for every i in [0, n) (see file header): the calling
  /// thread and at most min(n, size()) - 1 runner jobs claim blocks from
  /// one shared counter, so the caller alone finishes the region even
  /// while every worker is busy, and a runner that starts after the region
  /// returned claims nothing and never calls fn. Blocks must write disjoint
  /// state. Returns once every block has finished; the first exception any
  /// block threw is rethrown after that (remaining blocks still run). Must
  /// not be called from a worker of this pool — run nested regions inline,
  /// like submit().
  void run_blocks(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Throws when the calling thread is a worker of this pool (deadlock
  /// hazard; see submit()).
  void reject_nested_submit() const;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace pipad
