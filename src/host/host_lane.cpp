#include "host/host_lane.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/timer.hpp"

namespace pipad::host {

std::size_t default_prep_threads() { return default_compute_threads(); }

HostLane::HostLane(gpusim::Gpu& gpu, std::size_t threads) : gpu_(gpu) {
  ComputePool::instance().configure(threads);
  gpu_.set_worker_lanes(pool().size());
}

void HostLane::run(const std::string& name, std::size_t n,
                   const std::function<void(std::size_t)>& job) {
  if (n == 0) return;

  ThreadPool& p = pool();
  // Per-job wall-clock, indexed by lane; each inner vector is only touched
  // by its own pool thread, so no lock is needed.
  std::vector<std::vector<double>> per_lane(p.size());

  auto futs = p.map(n, [&](std::size_t i) {
    const std::size_t lane = ThreadPool::worker_index();
    Timer timer;
    job(i);
    per_lane[lane].push_back(timer.elapsed_us());
  });
  // Drain the whole batch before rethrowing so per_lane stays alive for
  // every in-flight job.
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);

  // Charge the timeline on the main thread (the Timeline is not
  // thread-safe): per lane, in the order that lane executed its jobs, so
  // the simulated schedule mirrors the real one.
  for (std::size_t lane = 0; lane < per_lane.size(); ++lane) {
    for (const double wall_us : per_lane[lane]) {
      gpu_.worker_op(lane, name, wall_us);
    }
  }
}

double HostLane::charge_all(const std::string& name, double wall_us,
                            double not_before_us, std::size_t tasks) {
  const std::size_t width = pool().size();
  const std::size_t lanes = tasks == 0 ? width : std::min(tasks, width);
  double end = not_before_us;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    end = std::max(end, gpu_.worker_op(lane, name, wall_us, not_before_us));
  }
  return end;
}

std::unique_ptr<HostStream> HostLane::stream(
    std::string name, std::size_t n, std::function<void(std::size_t)> job,
    std::size_t window, bool adaptive) {
  if (window == 0) window = 2 * pool().size();
  window = std::max<std::size_t>(1, window);
  return std::unique_ptr<HostStream>(new HostStream(
      gpu_, pool(), std::move(name), n, std::move(job), window, adaptive));
}

// ---------------------------------------------------------------- HostStream

HostStream::HostStream(gpusim::Gpu& gpu, ThreadPool& pool, std::string name,
                       std::size_t n, std::function<void(std::size_t)> job,
                       std::size_t window, bool adaptive)
    : gpu_(gpu),
      pool_(pool),
      name_(std::move(name)),
      n_(n),
      job_(std::move(job)),
      window_(window),
      adaptive_(adaptive),
      min_window_(std::max<std::size_t>(1, pool.size())),
      max_window_(4 * std::max<std::size_t>(1, pool.size())),
      end_us_(n, 0.0),
      retired_(n, false) {
  if (adaptive_) {
    window_ = std::clamp(window_, min_window_, max_window_);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  refill_locked();
}

HostStream::~HostStream() {
  try {
    finish();
  } catch (...) {
    // Jobs reference caller state: the drain itself must happen, but a
    // destructor cannot rethrow a job's failure. wait()/finish() callers
    // see it; a stream destroyed without either ran to completion anyway.
  }
}

void HostStream::submit_next_locked() {
  if (next_submit_ >= n_) return;
  const std::size_t i = next_submit_++;
  futures_.push_back(pool_.submit([this, i] {
    Completion c;
    c.index = i;
    c.lane = ThreadPool::worker_index();
    Timer timer;
    try {
      job_(i);
    } catch (...) {
      c.error = std::current_exception();
    }
    c.wall_us = timer.elapsed_us();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_.push_back(std::move(c));
    }
    cv_.notify_all();
  }));
}

void HostStream::refill_locked() {
  // In-flight = submitted and not yet retired; top back up to window_,
  // which may have just grown (adaptive mode).
  while (next_submit_ < n_ && next_submit_ - retired_count_ < window_) {
    submit_next_locked();
  }
}

void HostStream::adapt_locked(double job_wall_us) {
  constexpr double kAlpha = 0.25;
  ewma_job_us_ = have_job_ ? (1.0 - kAlpha) * ewma_job_us_ + kAlpha * job_wall_us
                           : job_wall_us;
  have_job_ = true;
  if (!have_consume_) return;
  // Keeping every lane fed needs roughly job_time / consume_interval jobs
  // in flight. When producing one item costs more than the pool-wide
  // consumption budget for it (lanes x the consumer's inter-wait gap), the
  // pipeline is extraction-bound: grow the window so more jobs overlap.
  // When production is comfortably cheaper (2x slack before shrinking, so
  // the window does not oscillate around the balance point), unconsumed
  // results would only pile up: shrink back toward the pool width.
  const double lanes = static_cast<double>(std::max<std::size_t>(1, pool_.size()));
  const double budget = lanes * ewma_consume_us_;
  if (ewma_job_us_ > budget && window_ < max_window_) {
    ++window_;
  } else if (ewma_job_us_ * 2.0 < budget && window_ > min_window_) {
    --window_;
  }
}

void HostStream::retire(const Completion& c) {
  // Consumer thread only: the Timeline is not thread-safe. Completions pop
  // in arrival order, which preserves each lane's execution order, so the
  // simulated schedule mirrors the real one (same contract as run()).
  end_us_[c.index] = gpu_.worker_op(c.lane, name_, c.wall_us);
  retired_[c.index] = true;
  if (c.error && !first_error_) first_error_ = c.error;
}

double HostStream::wait(std::size_t j) {
  PIPAD_CHECK_MSG(j < n_, "HostStream::wait(" << j << ") of " << n_);
  if (adaptive_) {
    // The consumer's inter-wait() interval is its per-item processing
    // time — the consumption-rate half of the adaptation signal.
    const auto now = std::chrono::steady_clock::now();
    if (have_last_wait_) {
      const double gap_us =
          std::chrono::duration<double, std::micro>(now - last_wait_).count();
      ewma_consume_us_ = have_consume_
                             ? 0.75 * ewma_consume_us_ + 0.25 * gap_us
                             : gap_us;
      have_consume_ = true;
    }
    last_wait_ = now;
    have_last_wait_ = true;
  }
  while (!retired_[j]) {
    Completion c;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return !done_.empty(); });
      c = std::move(done_.front());
      done_.pop_front();
      ++retired_count_;
      if (adaptive_) adapt_locked(c.wall_us);
      // A retired job frees window slots; keep the pipeline primed.
      refill_locked();
    }
    retire(c);
  }
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
  while (true) {
    Completion c;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (retired_count_ >= n_) break;
      cv_.wait(lock, [&] { return !done_.empty(); });
      c = std::move(done_.front());
      done_.pop_front();
      ++retired_count_;
      refill_locked();
    }
    retire(c);
  }
  // Join the pool tasks: a completion record arrives *before* the task
  // fully unwinds, so a worker can still be inside notify/packaged-task
  // teardown that touches this object — it is only provably out once its
  // future is ready. (Job exceptions were already captured per completion;
  // these gets never throw.)
  std::vector<std::future<void>> futs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    futs.swap(futures_);
  }
  for (auto& f : futs) f.get();
}

double charge_load(gpusim::Gpu& gpu, const graph::io::LoadStats& st,
                   std::size_t threads) {
  HostLane lane(gpu, threads);
  double end = 0.0;
  if (st.read_us > 0.0) {
    end = lane.charge_all("load:read", st.read_us, end, 1);
  }
  if (st.inflate_us > 0.0) {
    end = lane.charge_all("load:inflate", st.inflate_us, end, 1);
  }
  if (st.cache_hit) {
    // A hit replaces parse + build with one binary read (plus the
    // deterministic transpose rebuild, measured inside cache_us).
    if (st.cache_us > 0.0) {
      end = lane.charge_all("load:cache-read", st.cache_us, end, 1);
    }
    return end;
  }
  if (st.parse_us > 0.0) {
    end = lane.charge_all("load:parse", st.parse_us, end,
                          std::max<std::size_t>(1, st.parse_chunks));
  }
  if (st.build_us > 0.0) {
    end = lane.charge_all("load:build", st.build_us, end,
                          std::max<std::size_t>(1, st.build_tasks));
  }
  if (st.cache_us > 0.0) {
    end = lane.charge_all("load:cache-write", st.cache_us, end, 1);
  }
  return end;
}

}  // namespace pipad::host
