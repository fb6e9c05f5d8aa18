#include "gpusim/timeline.hpp"

#include <algorithm>

namespace pipad::gpusim {

const char* resource_name(Resource r) {
  switch (r) {
    case Resource::Cpu:
      return "cpu";
    case Resource::CpuWorker:
      return "cpu-worker";
    case Resource::H2D:
      return "h2d";
    case Resource::D2H:
      return "d2h";
    case Resource::Compute:
      return "compute";
    case Resource::Link:
      return "link";
  }
  return "?";
}

Timeline::Timeline()
    : worker_ready_(1, 0.0), worker_busy_(1, 0.0) {
  streams_.push_back({"default", 0.0});
}

StreamId Timeline::create_stream(std::string name) {
  streams_.push_back({std::move(name), 0.0});
  return streams_.size() - 1;
}

void Timeline::set_worker_lanes(std::size_t n) {
  PIPAD_CHECK_MSG(n >= 1, "need at least one worker lane");
  // Grow-only: shrinking would drop accumulated lane busy time and orphan
  // records whose lane no longer has a Gantt row.
  if (n > worker_ready_.size()) {
    worker_ready_.resize(n, 0.0);
    worker_busy_.resize(n, 0.0);
  }
}

double Timeline::submit(StreamId stream, Resource res, std::string name,
                        double duration_us, double extra_ready_us,
                        std::size_t bytes, const KernelStats* stats) {
  PIPAD_CHECK_MSG(stream < streams_.size(), "unknown stream " << stream);
  PIPAD_CHECK_MSG(duration_us >= 0.0, "negative op duration for " << name);
  PIPAD_CHECK_MSG(res != Resource::CpuWorker,
                  "CpuWorker ops are lane-scoped; use submit_worker for "
                      << name);
  const int ri = static_cast<int>(res);

  const double start = std::max(
      {streams_[stream].ready_us, resource_ready_[ri], extra_ready_us});
  const double end = start + duration_us;

  streams_[stream].ready_us = end;
  resource_ready_[ri] = end;
  resource_busy_[ri] += duration_us;
  makespan_ = std::max(makespan_, end);

  OpRecord rec;
  rec.name = std::move(name);
  rec.resource = res;
  rec.stream = stream;
  rec.start_us = start;
  rec.end_us = end;
  rec.bytes = bytes;
  if (stats != nullptr) rec.stats = *stats;
  records_.push_back(std::move(rec));
  return end;
}

double Timeline::submit_worker(std::size_t lane, std::string name,
                               double duration_us, double extra_ready_us) {
  PIPAD_CHECK_MSG(lane < worker_ready_.size(),
                  "unknown worker lane " << lane << " (have "
                                         << worker_ready_.size() << ")");
  PIPAD_CHECK_MSG(duration_us >= 0.0, "negative op duration for " << name);

  const double start = std::max(worker_ready_[lane], extra_ready_us);
  const double end = start + duration_us;
  worker_ready_[lane] = end;
  worker_busy_[lane] += duration_us;
  makespan_ = std::max(makespan_, end);

  OpRecord rec;
  rec.name = std::move(name);
  rec.resource = Resource::CpuWorker;
  rec.stream = 0;
  rec.start_us = start;
  rec.end_us = end;
  rec.lane = lane;
  records_.push_back(std::move(rec));
  return end;
}

double Timeline::worker_lane_ready(std::size_t lane) const {
  PIPAD_CHECK_MSG(lane < worker_ready_.size(), "unknown worker lane " << lane);
  return worker_ready_[lane];
}

EventId Timeline::record_event(StreamId stream) {
  PIPAD_CHECK_MSG(stream < streams_.size(), "unknown stream " << stream);
  events_.push_back(streams_[stream].ready_us);
  return events_.size() - 1;
}

EventId Timeline::record_event_at(double time_us) {
  PIPAD_CHECK_MSG(time_us >= 0.0, "negative event time");
  events_.push_back(time_us);
  return events_.size() - 1;
}

void Timeline::wait_event(StreamId stream, EventId event) {
  PIPAD_CHECK_MSG(stream < streams_.size(), "unknown stream " << stream);
  PIPAD_CHECK_MSG(event < events_.size(), "unknown event " << event);
  streams_[stream].ready_us =
      std::max(streams_[stream].ready_us, events_[event]);
}

double Timeline::stream_ready(StreamId stream) const {
  PIPAD_CHECK_MSG(stream < streams_.size(), "unknown stream " << stream);
  return streams_[stream].ready_us;
}

double Timeline::resource_ready(Resource res) const {
  if (res == Resource::CpuWorker) {
    return *std::max_element(worker_ready_.begin(), worker_ready_.end());
  }
  return resource_ready_[static_cast<int>(res)];
}

double Timeline::busy_us(Resource res) const {
  if (res == Resource::CpuWorker) {
    double sum = 0.0;
    for (double b : worker_busy_) sum += b;
    return sum;
  }
  return resource_busy_[static_cast<int>(res)];
}

double Timeline::utilization(Resource res) const {
  return makespan_ <= 0.0 ? 0.0 : busy_us(res) / makespan_;
}

double Timeline::busy_us_with_prefix(const std::string& prefix) const {
  double total = 0.0;
  for (const auto& rec : records_) {
    if (rec.name.rfind(prefix, 0) == 0) total += rec.end_us - rec.start_us;
  }
  return total;
}

double Timeline::device_active_fraction() const {
  if (makespan_ <= 0.0) return 0.0;
  // Union of [start, end) intervals over device-side resources.
  std::vector<std::pair<double, double>> ivs;
  ivs.reserve(records_.size());
  for (const auto& rec : records_) {
    if (rec.resource == Resource::Compute || rec.resource == Resource::H2D ||
        rec.resource == Resource::D2H) {
      ivs.emplace_back(rec.start_us, rec.end_us);
    }
  }
  std::sort(ivs.begin(), ivs.end());
  double active = 0.0;
  double cur_lo = 0.0, cur_hi = -1.0;
  for (const auto& [lo, hi] : ivs) {
    if (hi <= lo) continue;
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) active += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) active += cur_hi - cur_lo;
  return active / makespan_;
}

KernelStats Timeline::stats_with_prefix(const std::string& prefix) const {
  KernelStats sum;
  for (const auto& rec : records_) {
    if (rec.resource == Resource::Compute &&
        rec.name.rfind(prefix, 0) == 0) {
      sum += rec.stats;
    }
  }
  return sum;
}

void Timeline::reset() {
  for (auto& s : streams_) s.ready_us = 0.0;
  std::fill(std::begin(resource_ready_), std::end(resource_ready_), 0.0);
  std::fill(std::begin(resource_busy_), std::end(resource_busy_), 0.0);
  std::fill(worker_ready_.begin(), worker_ready_.end(), 0.0);
  std::fill(worker_busy_.begin(), worker_busy_.end(), 0.0);
  events_.clear();
  records_.clear();
  makespan_ = 0.0;
}

}  // namespace pipad::gpusim
