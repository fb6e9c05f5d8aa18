// Shared training configuration and result summary for all runtimes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/kernel_stats.hpp"
#include "gpusim/timeline.hpp"
#include "models/model.hpp"

namespace pipad::models {

struct TrainConfig {
  ModelType model = ModelType::MpnnLstm;
  int frame_size = 16;      ///< §5.1: frame size 16 in all experiments.
  int epochs = 3;           ///< Paper trains 200; per-epoch cost is
                            ///< stationary after the preparing epochs, so
                            ///< benches default lower and scale.
  int max_frames_per_epoch = 0;  ///< 0 = every frame (stride 1).
  float lr = 1e-3f;
  int hidden_dim = 0;       ///< 0 = paper rule (D<=2 -> 6, else 32).
  std::uint64_t seed = 7;
};

/// Simulated-time summary of one training run, extracted from the Timeline.
struct TrainResult {
  double total_us = 0.0;        ///< Makespan.
  double transfer_us = 0.0;     ///< H2D + D2H busy time.
  double compute_us = 0.0;      ///< Compute-engine busy time.
  double host_us = 0.0;         ///< CPU (launch + framework) busy time.
  double prep_us = 0.0;         ///< Worker-lane host prep busy time, summed
                                ///< over lanes (measured, §4.3).
  double sm_utilization = 0.0;  ///< Compute busy fraction (Fig. 3 right axis).
  double device_active = 0.0;   ///< nvidia-smi style utilization (Table 2).
  /// Sim time at which the first steady-state frame fully finished (host
  /// issue, transfers, kernels) — the latency the streaming extractor
  /// shrinks vs the batch one. 0 when no steady epoch ran (PiPAD only;
  /// baselines have no steady state).
  double first_steady_us = 0.0;

  /// Never set; kept only because bench/e2e/pipad_e2e.cpp still reads it.
  std::uint64_t steals = 0;

  // PiPAD runs (replica::ReplicaTrainer) only; 0/empty otherwise.
  int replicas = 0;             ///< --replicas as given (0 = one device,
                                ///< an optimizer step after every frame).
  double allreduce_us = 0.0;    ///< Modeled interconnect busy time charged
                                ///< to replica 0's Link lane.
  std::vector<double> replica_total_us;  ///< Per-replica makespan.

  // Compute-time breakdown by kernel tag (Fig. 4).
  double gnn_us = 0.0;   ///< Aggregation + normalize + GCN update kernels.
  double rnn_us = 0.0;   ///< LSTM/GRU/weight-evolution kernels.
  double other_us = 0.0; ///< Head, loss, optimizer, misc.

  gpusim::KernelStats agg_stats;  ///< Aggregation kernels only (Fig. 5/11).
  gpusim::KernelStats gnn_stats;  ///< All GNN-tagged kernels (§5.3 thread util).
  gpusim::KernelStats all_stats;

  std::vector<float> frame_loss;  ///< Loss per trained frame, in order.

  double final_loss() const {
    return frame_loss.empty() ? 0.0 : frame_loss.back();
  }
};

/// Classify a timeline op name into the Fig. 4 buckets.
/// Kernel names look like "kernel:agg:...", "kernel:gemm:gcn.l1", ...
inline bool is_gnn_kernel(const std::string& name) {
  return name.find(":agg") != std::string::npos ||
         name.find("gcn.") != std::string::npos ||
         name.find("normalize") != std::string::npos;
}
inline bool is_rnn_kernel(const std::string& name) {
  return name.find("rnn.") != std::string::npos;
}

/// Populate the timing fields of a TrainResult from a finished timeline.
inline void summarize_timeline(const gpusim::Timeline& tl, TrainResult& r) {
  using gpusim::Resource;
  r.total_us = tl.makespan();
  r.transfer_us = tl.busy_us(Resource::H2D) + tl.busy_us(Resource::D2H);
  r.compute_us = tl.busy_us(Resource::Compute);
  r.host_us = tl.busy_us(Resource::Cpu) + tl.busy_us(Resource::CpuWorker);
  r.prep_us = tl.busy_us(Resource::CpuWorker);
  r.sm_utilization = tl.utilization(Resource::Compute);
  r.device_active = tl.device_active_fraction();
  r.gnn_us = r.rnn_us = r.other_us = 0.0;
  for (const auto& rec : tl.records()) {
    if (rec.resource != Resource::Compute) continue;
    const double d = rec.end_us - rec.start_us;
    if (is_gnn_kernel(rec.name)) {
      r.gnn_us += d;
      r.gnn_stats += rec.stats;
    } else if (is_rnn_kernel(rec.name)) {
      r.rnn_us += d;
    } else {
      r.other_us += d;
    }
    if (rec.name.rfind("kernel:agg", 0) == 0) r.agg_stats += rec.stats;
    r.all_stats += rec.stats;
  }
}

}  // namespace pipad::models
