#include "host/host_lane.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace pipad::host {

double charge(gpusim::Gpu& gpu, const std::string& name,
              const PrepCounts& counts) {
  return gpu.worker_op(name, prep_cost_us(counts));
}

HostLane::HostLane(gpusim::Gpu& gpu, std::size_t threads) : gpu_(gpu) {
  ComputePool::instance().configure(threads);
  gpu_.set_worker_lanes(kModeledHostCores);
}

void HostLane::run(const std::string& name,
                   const std::vector<PrepCounts>& counts,
                   const std::function<void(std::size_t)>& job) {
  // One slot per job, so a failure never stops the rest of the batch and
  // the error that surfaces does not depend on which thread failed first.
  std::vector<std::exception_ptr> errors(counts.size());
  ComputePool::instance().pool().parallel_for(
      counts.size(), [&](std::size_t i) {
        try {
          job(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const auto& c : counts) charge(gpu_, name, c);
}

std::unique_ptr<HostStream> HostLane::stream(
    std::string name, std::vector<PrepCounts> counts,
    std::function<void(std::size_t)> job) {
  return std::unique_ptr<HostStream>(
      new HostStream(gpu_, ComputePool::instance().pool(), std::move(name),
                     std::move(counts), std::move(job)));
}

// ---------------------------------------------------------------- HostStream

HostStream::HostStream(gpusim::Gpu& gpu, ThreadPool& pool, std::string name,
                       std::vector<PrepCounts> counts,
                       std::function<void(std::size_t)> job)
    : gpu_(gpu),
      pool_(pool),
      name_(std::move(name)),
      counts_(std::move(counts)),
      job_(std::move(job)),
      end_us_(counts_.size(), 0.0) {
  futures_.reserve(size());
  // Each retired job submits one more, so at most twice the pool width
  // are ever submitted and unretired.
  const std::size_t window = std::min(2 * pool.size(), size());
  while (futures_.size() < window) submit_next();
}

HostStream::~HostStream() {
  try {
    finish();
  } catch (...) {
    // finish() only throws when the pool stops accepting jobs; the jobs
    // already submitted reference caller state and are joined below.
  }
  for (auto& f : futures_) {
    if (f.valid()) f.wait();
  }
}

void HostStream::submit_next() {
  const std::size_t i = futures_.size();
  futures_.push_back(pool_.submit([this, i] { job_(i); }));
}

void HostStream::retire_next() {
  const std::size_t k = retired_;
  try {
    futures_[k].get();
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
  }
  ++retired_;
  end_us_[k] = charge(gpu_, name_, counts_[k]);
  if (futures_.size() < size()) submit_next();  // Keep the window full.
}

double HostStream::wait(std::size_t j) {
  PIPAD_CHECK_MSG(j < size(), "HostStream::wait(" << j << ") of " << size());
  while (retired_ <= j && !first_error_) retire_next();
  if (first_error_) {
    finish();  // Drain stragglers before surfacing the failure.
    // Sticky: the error keeps rethrowing on every later wait(), so a
    // caller that catches and continues can never silently consume the
    // failed job's default-constructed output.
    std::rethrow_exception(first_error_);
  }
  return end_us_[j];
}

void HostStream::finish() {
  while (retired_ < size()) retire_next();
}

}  // namespace pipad::host
