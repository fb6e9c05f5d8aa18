// HostLane: real parallel execution of PiPAD's host-side preparation (§4.3),
// charged to the modeled timeline from counts (host/prep_cost.hpp).
//
// The trainer's prep work — per-snapshot slicing and degree builds, the
// profiling scans of the preparing epochs, and per-partition overlap
// extraction — runs on the process-wide common::ComputePool (injected, not
// owned: the same threads execute the numeric kernels). What a job costs on
// the modeled timeline is decided from counts of its inputs, never from how
// long it took, and its op goes to the least-loaded of kModeledHostCores
// worker lanes in job-index order on the calling thread. Which pool thread
// ran a job, or when it finished, never reaches the Timeline. Streamed jobs
// report their modeled completion times so device transfers can wait on
// exactly the job that produced their data.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/compute_pool.hpp"
#include "gpusim/gpu.hpp"
#include "host/prep_cost.hpp"

namespace pipad::host {

class HostStream;

class HostLane {
 public:
  /// Configures the process-wide ComputePool to `threads` workers (0 picks
  /// the library default, min(hardware_concurrency, 8)) and registers
  /// kModeledHostCores worker lanes with the Gpu's timeline.
  explicit HostLane(gpusim::Gpu& gpu, std::size_t threads = 0);

  /// Width of the real pool the jobs run on.
  std::size_t threads() { return ComputePool::instance().threads(); }

  /// Execute job(i) for every i < counts.size() on the pool and wait, then
  /// charge job i's modeled cost (counts[i]) in index order. Results written
  /// by the jobs must go to disjoint slots; every job runs, and the
  /// lowest-index job exception is rethrown after the batch drains.
  void run(const std::string& name, const std::vector<PrepCounts>& counts,
           const std::function<void(std::size_t)>& job);

  /// Begin a frame-ordered streaming batch: job(i) for i < counts.size()
  /// executes on the pool in enqueue order, with at most twice the pool
  /// width submitted and not yet retired by wait() — backpressure, so a
  /// long timeline's partition extraction does not pile up unconsumed
  /// results.
  std::unique_ptr<HostStream> stream(std::string name,
                                     std::vector<PrepCounts> counts,
                                     std::function<void(std::size_t)> job);

 private:
  gpusim::Gpu& gpu_;
};

/// A streaming batch in flight (HostLane::stream). The consumer calls
/// wait(j) — usually in enqueue order, but any order works — which blocks
/// until every job up to j has really completed, retires them in index
/// order (charging each one's modeled cost), tops the in-flight window back
/// up, and returns job j's modeled end time. Everything except the job
/// bodies runs on the consumer thread; the Timeline is only touched there.
class HostStream {
 public:
  ~HostStream();
  HostStream(const HostStream&) = delete;
  HostStream& operator=(const HostStream&) = delete;

  std::size_t size() const { return counts_.size(); }

  /// Jobs retired (charged) so far; always a prefix of the job indices.
  std::size_t retired() const { return retired_; }

  /// Modeled completion time of job j. Blocks until the job is done;
  /// rethrows the lowest-index job exception once that job has retired.
  /// The error is sticky: after any job failed, every wait() throws, so
  /// failed output can never be consumed as if it succeeded.
  double wait(std::size_t j);

  /// Retire every remaining job (drains the stream). Called by the
  /// destructor if the consumer did not.
  void finish();

 private:
  friend class HostLane;
  HostStream(gpusim::Gpu& gpu, ThreadPool& pool, std::string name,
             std::vector<PrepCounts> counts,
             std::function<void(std::size_t)> job);

  void submit_next();  ///< Enqueue the first job not yet submitted.
  void retire_next();  ///< Wait for job retired_, charge it, refill.

  gpusim::Gpu& gpu_;
  ThreadPool& pool_;
  std::string name_;
  std::vector<PrepCounts> counts_;
  std::function<void(std::size_t)> job_;
  std::vector<std::future<void>> futures_;  ///< One per submitted job.
  std::vector<double> end_us_;              ///< Modeled end per retired job.
  std::size_t retired_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace pipad::host
