// Discrete-event timeline: schedules simulated ops onto hardware resources.
//
// The model mirrors the concurrency structure of a real single-GPU node:
//   - one compute engine (kernels from any stream serialize on it; our kernel
//     cost model already assumes whole-GPU occupancy per kernel),
//   - one copy engine per direction (H2D, D2H) — so transfers overlap with
//     compute but not with same-direction transfers,
//   - the issuing CPU thread (kernel-launch overhead serializes here),
//   - N background CPU worker lanes for PiPAD's asynchronous host-side
//     preparation (§4.3), one per modeled host core (host::kModeledHostCores).
//     Worker ops are submitted per lane with submit_worker(); the duration
//     comes from the prep cost model (host/prep_cost.hpp), never a host
//     clock.
// Streams give program order; events give cross-stream dependencies. Since
// ops are scheduled eagerly at submission, the whole simulation is a single
// deterministic pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gpusim/kernel_stats.hpp"

namespace pipad::gpusim {

enum class Resource : int {
  Cpu = 0,        ///< Issuing/training CPU thread.
  CpuWorker = 1,  ///< Background host prep (slicing, overlap extraction).
  H2D = 2,
  D2H = 3,
  Compute = 4,
  Link = 5,       ///< Inter-replica interconnect (all-reduce steps).
};
inline constexpr int kNumResources = 6;

const char* resource_name(Resource r);

using StreamId = std::size_t;
using EventId = std::size_t;

struct OpRecord {
  std::string name;     ///< "category:detail", e.g. "kernel:agg".
  Resource resource;
  StreamId stream;
  double start_us;
  double end_us;
  std::size_t bytes = 0;      ///< Transfers only.
  std::size_t lane = 0;       ///< CpuWorker ops only: which worker lane.
  KernelStats stats;          ///< Kernels only.
};

class Timeline {
 public:
  Timeline();

  StreamId create_stream(std::string name);

  /// Schedule an op of the given duration on (stream, resource).
  /// extra_ready: earliest permissible start in addition to stream/resource
  /// availability (used for launch-overhead coupling). Returns end time.
  /// CpuWorker ops go through submit_worker() instead: they belong to a
  /// specific lane, not to a stream.
  double submit(StreamId stream, Resource res, std::string name,
                double duration_us, double extra_ready_us = 0.0,
                std::size_t bytes = 0, const KernelStats* stats = nullptr);

  /// Number of background CPU worker lanes (default 1).
  std::size_t worker_lanes() const { return worker_ready_.size(); }

  /// Grow the worker-lane set to at least n (n >= 1; never shrinks, so
  /// accumulated lane state and records stay valid). Call before
  /// submitting worker ops for a clean per-lane schedule.
  void set_worker_lanes(std::size_t n);

  /// Schedule a background host-prep op on one worker lane. Lanes are
  /// independent: an op starts at max(lane front, extra_ready_us), so ops
  /// on different lanes overlap on the timeline. Returns end time.
  double submit_worker(std::size_t lane, std::string name,
                       double duration_us, double extra_ready_us = 0.0);

  /// Current front of a worker lane.
  double worker_lane_ready(std::size_t lane) const;

  /// Record the current position of a stream as an event.
  EventId record_event(StreamId stream);

  /// Record an event at an explicit timestamp (e.g. the modeled completion
  /// of a worker-lane job) so streams can wait on background prep.
  EventId record_event_at(double time_us);

  /// Make a stream wait until the event's recorded position.
  void wait_event(StreamId stream, EventId event);

  /// Current front of a stream (time when its next op could start).
  double stream_ready(StreamId stream) const;

  /// Current front of a resource. For CpuWorker: the latest lane front.
  double resource_ready(Resource res) const;

  /// End time of the last op across all resources.
  double makespan() const { return makespan_; }

  /// Total busy time of a resource. For CpuWorker: summed over lanes.
  double busy_us(Resource res) const;

  /// Busy fraction of a resource over the makespan. For CpuWorker this can
  /// exceed 1 when several lanes are busy concurrently.
  double utilization(Resource res) const;

  /// Sum of op durations whose name starts with the given prefix.
  double busy_us_with_prefix(const std::string& prefix) const;

  /// Fraction of the makespan during which the *device* (compute or either
  /// copy engine) is active — this is what nvidia-smi style "GPU utilization"
  /// reports (Table 2 discussion, §5.2).
  double device_active_fraction() const;

  /// Sum of kernel stats for ops whose name starts with the given prefix.
  KernelStats stats_with_prefix(const std::string& prefix) const;

  const std::vector<OpRecord>& records() const { return records_; }
  std::size_t num_streams() const { return streams_.size(); }

  void reset();

 private:
  struct StreamState {
    std::string name;
    double ready_us = 0.0;
  };

  std::vector<StreamState> streams_;
  double resource_ready_[kNumResources] = {};
  double resource_busy_[kNumResources] = {};
  std::vector<double> worker_ready_;  ///< Per-lane front (CpuWorker).
  std::vector<double> worker_busy_;   ///< Per-lane busy time (CpuWorker).
  std::vector<double> events_;
  std::vector<OpRecord> records_;
  double makespan_ = 0.0;
};

}  // namespace pipad::gpusim
