// HostLane: real parallel execution of PiPAD's host-side preparation (§4.3).
//
// The trainer's prep work — per-snapshot slicing and degree builds, the
// profiling scans of the preparing epochs, and per-partition overlap
// extraction — runs on the process-wide common::ComputePool (injected, not
// owned: the same lanes execute the numeric kernels). Each job's wall-clock
// is measured on the pool thread that executed it and charged to the
// matching simulated CpuWorker lane, so the Timeline shows true prep/device
// overlap instead of a single-thread measurement divided by an assumed
// parallelism factor. Streamed jobs report their simulated completion
// times so device transfers can wait on exactly the job that produced
// their data.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/compute_pool.hpp"
#include "gpusim/gpu.hpp"
#include "graph/io/loader.hpp"

namespace pipad::host {

class HostStream;

/// The library default for host-side prep pools: min(hardware_concurrency,
/// 8). Prep work saturates well below the core count of a training node;
/// the paper's testbed dedicates a fraction of a 24-core Xeon to it.
/// (Alias of default_compute_threads(): prep and compute share one pool.)
std::size_t default_prep_threads();

class HostLane {
 public:
  /// Configures the process-wide ComputePool to `threads` workers (0 picks
  /// the library default, min(hardware_concurrency, 8)) and registers the
  /// lane count with the Gpu's timeline.
  explicit HostLane(gpusim::Gpu& gpu, std::size_t threads = 0);

  std::size_t threads() { return pool().size(); }

  /// The shared pool, for callers that parallelize inside one job-sized
  /// region from the main thread (e.g. sliced::build_partition). Never
  /// submit to it from within a run() job: nested waits can deadlock a
  /// fixed-size pool (ThreadPool::submit rejects that case).
  ThreadPool& pool() { return ComputePool::instance().pool(); }

  /// Execute job(i) for i in [0, n) on the pool and wait. Every job's
  /// measured wall-clock is charged to the worker lane it actually ran on,
  /// in that lane's execution order. Results written by the jobs must go to
  /// disjoint slots; the first job exception is rethrown after the batch
  /// drains.
  void run(const std::string& name, std::size_t n,
           const std::function<void(std::size_t)>& job);

  /// Charge a parallel region driven from the main thread (an
  /// internally-parallel build) for a measured wall_us. `tasks` bounds the
  /// region's concurrency: only min(tasks, threads()) lanes were actually
  /// busy and get charged (0 = the whole pool). Returns the simulated end
  /// time.
  double charge_all(const std::string& name, double wall_us,
                    double not_before_us = 0.0, std::size_t tasks = 0);

  /// Begin a frame-ordered streaming batch: job(i) for i in [0, n) executes
  /// on the pool in enqueue order, but at most `window` jobs are in flight
  /// (submitted and not yet retired by wait()) at any moment — backpressure,
  /// so a long timeline's partition extraction does not pile up unconsumed
  /// results. 0 picks 2x the pool width. Same charging contract as run():
  /// each job's measured wall-clock lands on the lane that executed it.
  /// With `adaptive` set the window self-tunes between the pool width and
  /// 4x the pool width from the measured extraction-cost vs
  /// consumption-rate balance (see HostStream::wait); `window` then only
  /// sets the starting point.
  std::unique_ptr<HostStream> stream(std::string name, std::size_t n,
                                     std::function<void(std::size_t)> job,
                                     std::size_t window = 0,
                                     bool adaptive = false);

 private:
  gpusim::Gpu& gpu_;
};

/// A streaming batch in flight (HostLane::stream). The consumer calls
/// wait(j) — usually in enqueue order, but any order works — which blocks
/// until job j has really completed, charges every completion that has
/// arrived to its worker lane (in that lane's execution order), tops the
/// in-flight window back up, and returns job j's simulated end time.
/// Everything except the job bodies runs on the consumer thread; the
/// Timeline is only touched there.
class HostStream {
 public:
  ~HostStream();
  HostStream(const HostStream&) = delete;
  HostStream& operator=(const HostStream&) = delete;

  std::size_t size() const { return n_; }

  /// Jobs retired (charged) so far. Consumer-thread view; with the
  /// in-flight window this bounds how far the stream has run ahead.
  std::size_t retired() const { return retired_count_; }

  /// Current in-flight window. Fixed unless the stream was created
  /// adaptive, in which case wait() retunes it (consumer-thread view).
  std::size_t window() const { return window_; }

  /// Simulated completion time of job j. Blocks until the job is done;
  /// rethrows the first job exception once the waited job has retired.
  /// The error is sticky: after any job failed, every wait() throws, so
  /// failed output can never be consumed as if it succeeded.
  double wait(std::size_t j);

  /// Retire every remaining job (drains the stream). Called by the
  /// destructor if the consumer did not.
  void finish();

 private:
  friend class HostLane;
  HostStream(gpusim::Gpu& gpu, ThreadPool& pool, std::string name,
             std::size_t n, std::function<void(std::size_t)> job,
             std::size_t window, bool adaptive);

  struct Completion {
    std::size_t index;
    std::size_t lane;
    double wall_us;
    std::exception_ptr error;
  };

  void submit_next_locked();       ///< Enqueue one more job if any remain.
  void refill_locked();            ///< Top the in-flight window back up.
  void adapt_locked(double job_wall_us);  ///< Retune window_ (adaptive mode).
  void retire(const Completion&);  ///< Charge one completion (consumer thread).

  gpusim::Gpu& gpu_;
  ThreadPool& pool_;
  std::string name_;
  std::size_t n_;
  std::function<void(std::size_t)> job_;
  std::size_t window_;
  bool adaptive_ = false;
  std::size_t min_window_ = 1;  ///< Adaptive bounds: [pool width, 4x].
  std::size_t max_window_ = 1;

  std::mutex mutex_;                  ///< Guards done_, futures_, counters.
  std::condition_variable cv_;
  std::deque<Completion> done_;       ///< Completed, not yet retired.
  std::vector<std::future<void>> futures_;  ///< Joined by finish(): a worker
                                      ///< is only provably out of this
                                      ///< object once its task future is
                                      ///< ready.
  std::size_t next_submit_ = 0;       ///< First job not yet enqueued.
  std::size_t retired_count_ = 0;

  // Consumer-thread state (no lock needed).
  std::vector<double> end_us_;        ///< Sim end per retired job.
  std::vector<bool> retired_;
  std::exception_ptr first_error_;

  // Adaptive-window signal (consumer thread): EWMA of the producers' job
  // wall time vs the consumer's inter-wait() interval — the extraction
  // cost vs consumption rate balance.
  double ewma_job_us_ = 0.0;
  double ewma_consume_us_ = 0.0;
  bool have_job_ = false;
  bool have_consume_ = false;
  std::chrono::steady_clock::time_point last_wait_{};
  bool have_last_wait_ = false;
};

/// Charge an on-disk dataset load's measured phases (file read, chunked
/// parse, snapshot build, cache I/O — graph::io::LoadStats) to the Gpu's
/// worker lanes, the same accounting prep jobs get: `pipad trace` shows the
/// ingest as `prep:load:*` ops ahead of the first epoch, occupying as many
/// lanes as each phase actually fanned out to. Returns the simulated end
/// time of the load. `threads` configures the ComputePool like HostLane
/// (0 = library default).
double charge_load(gpusim::Gpu& gpu, const graph::io::LoadStats& stats,
                   std::size_t threads = 0);

}  // namespace pipad::host
