// Gpu: the facade every trainer talks to.
//
// Bundles the device-memory accountant, the cost model and the timeline, and
// exposes the handful of high-level operations the training loops need:
// asynchronous H2D/D2H copies, kernel launches (individually or batched via a
// recorded CudaGraph, cf. §4.2), and host-side ops on the main / worker CPU
// lanes. All durations come from the CostModel; real data movement and math
// happen in the callers.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/kernel_stats.hpp"
#include "gpusim/sim_config.hpp"
#include "gpusim/timeline.hpp"

namespace pipad::gpusim {

class Gpu;

/// A recorded sequence of kernels replayed with near-zero per-kernel launch
/// overhead — the simulation analogue of CUDA Graphs [Gray 2019], which
/// PiPAD uses to batch the many small RNN kernels (§4.2).
class CudaGraph {
 public:
  void add_kernel(std::string name, KernelStats stats) {
    nodes_.emplace_back(std::move(name), stats);
  }
  std::size_t size() const { return nodes_.size(); }
  void clear() { nodes_.clear(); }

 private:
  friend class Gpu;
  std::vector<std::pair<std::string, KernelStats>> nodes_;
};

class Gpu {
 public:
  explicit Gpu(SimConfig cfg = {})
      : cost_(cfg), device_(cfg.device_mem_bytes) {}

  Device& device() { return device_; }
  const Device& device() const { return device_; }
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }
  const CostModel& cost() const { return cost_; }
  const SimConfig& config() const { return cost_.config(); }

  StreamId create_stream(std::string name) {
    return timeline_.create_stream(std::move(name));
  }

  /// Launch a single kernel: the issuing CPU thread pays the launch
  /// overhead (plus any framework-level host cost), and the kernel body
  /// cannot start before the launch returns.
  double launch_kernel(StreamId stream, const std::string& name,
                       const KernelStats& stats, double extra_cpu_us = 0.0) {
    const double issued = timeline_.submit(
        stream, Resource::Cpu, "launch:" + name,
        cost_.config().kernel_launch_us + extra_cpu_us);
    return timeline_.submit(stream, Resource::Compute, "kernel:" + name,
                            cost_.kernel_us(stats), issued, 0, &stats);
  }

  /// Replay a recorded graph: one graph-launch overhead, tiny per-node cost.
  double launch_graph(StreamId stream, const CudaGraph& graph) {
    const auto& cfg = cost_.config();
    const double issued = timeline_.submit(stream, Resource::Cpu,
                                           "launch:graph", cfg.graph_launch_us);
    double end = issued;
    for (const auto& [name, stats] : graph.nodes_) {
      end = timeline_.submit(stream, Resource::Compute, "kernel:" + name,
                             cost_.kernel_us(stats) + cfg.graph_node_us,
                             issued, 0, &stats);
    }
    return end;
  }

  /// Asynchronous host-to-device copy.
  double memcpy_h2d(StreamId stream, const std::string& name,
                    std::size_t bytes, bool pinned) {
    return timeline_.submit(stream, Resource::H2D, "h2d:" + name,
                            cost_.transfer_us(bytes, pinned), 0.0, bytes);
  }

  /// Asynchronous device-to-host copy.
  double memcpy_d2h(StreamId stream, const std::string& name,
                    std::size_t bytes, bool pinned) {
    return timeline_.submit(stream, Resource::D2H, "d2h:" + name,
                            cost_.transfer_us(bytes, pinned), 0.0, bytes);
  }

  /// Synchronous copy: the issuing CPU blocks until the copy completes
  /// (models cudaMemcpy with pageable memory — the PyGT baseline, §3.1).
  double memcpy_h2d_sync(StreamId stream, const std::string& name,
                         std::size_t bytes, bool pinned) {
    const double end = memcpy_h2d(stream, name, bytes, pinned);
    // Block the CPU lane until the transfer finishes.
    const double cpu_now = timeline_.resource_ready(Resource::Cpu);
    if (end > cpu_now) {
      timeline_.submit(0, Resource::Cpu, "sync:" + name, end - cpu_now);
    }
    return end;
  }

  /// Host-side work on the main training thread.
  double host_op(const std::string& name, double duration_us) {
    return timeline_.submit(0, Resource::Cpu, "host:" + name, duration_us);
  }

  /// Block the issuing CPU thread until `until_us` — models a real
  /// main-thread wait (e.g. on a background prep job's completion, §4.3).
  /// A no-op when the CPU front is already past that point.
  double cpu_wait_until(const std::string& name, double until_us) {
    const double cpu_now = timeline_.resource_ready(Resource::Cpu);
    if (until_us <= cpu_now) return cpu_now;
    return timeline_.submit(0, Resource::Cpu, "wait:" + name,
                            until_us - cpu_now);
  }

  /// Declare how many background worker lanes exist (one per modeled host
  /// core, host::kModeledHostCores).
  void set_worker_lanes(std::size_t n) { timeline_.set_worker_lanes(n); }

  /// Host-side work on a background worker lane (PiPAD's async prep). The
  /// duration comes from host::prep_cost_us; the op goes to the
  /// least-loaded lane (earliest front, lowest index on ties), so the
  /// placement depends only on the order of the calls.
  double worker_op(const std::string& name, double duration_us) {
    std::size_t lane = 0;
    for (std::size_t l = 1; l < timeline_.worker_lanes(); ++l) {
      if (timeline_.worker_lane_ready(l) < timeline_.worker_lane_ready(lane)) {
        lane = l;
      }
    }
    return timeline_.submit_worker(lane, "prep:" + name, duration_us);
  }

  EventId record_event(StreamId stream) {
    return timeline_.record_event(stream);
  }
  void wait_event(StreamId stream, EventId ev) {
    timeline_.wait_event(stream, ev);
  }

  /// Buffer factory with capacity accounting.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t n, std::string name) {
    return DeviceBuffer<T>(device_, n, std::move(name));
  }

 private:
  CostModel cost_;
  Device device_;
  Timeline timeline_;
};

}  // namespace pipad::gpusim
