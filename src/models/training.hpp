// What every runtime shares: the five training methods, the training
// configuration, the step-engine interface the one training loop
// (replica::ReplicaTrainer) drives, and the result summary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/kernel_stats.hpp"
#include "gpusim/timeline.hpp"
#include "graph/dtdg.hpp"
#include "models/model.hpp"

namespace pipad::models {

/// The methods the evaluation compares (§5.1), in the paper's order.
enum class Method { PyGT, PyGTA, PyGTR, PyGTG, PiPAD };

inline constexpr Method kMethods[] = {Method::PyGT, Method::PyGTA,
                                      Method::PyGTR, Method::PyGTG,
                                      Method::PiPAD};

/// Record and table label: "PyGT", "PyGT-A", "PyGT-R", "PyGT-G", "PiPAD".
inline const char* method_label(Method m) {
  constexpr const char* kLabels[] = {"PyGT", "PyGT-A", "PyGT-R", "PyGT-G",
                                     "PiPAD"};
  return kLabels[static_cast<int>(m)];
}

/// The method a JobSpec runtime string names ("pygt", "pygt-a", "pygt-r",
/// "pygt-g", "pipad"); nullopt when it names none.
inline std::optional<Method> parse_runtime(const std::string& runtime) {
  constexpr const char* kRuntimes[] = {"pygt", "pygt-a", "pygt-r", "pygt-g",
                                       "pipad"};
  for (const Method m : kMethods) {
    if (runtime == kRuntimes[static_cast<int>(m)]) return m;
  }
  return std::nullopt;
}

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

/// The hidden width a run trains at: cfg.hidden_dim, else the paper rule.
inline int hidden_dim(const TrainConfig& cfg, int feat_dim) {
  return cfg.hidden_dim > 0 ? cfg.hidden_dim : default_hidden_dim(feat_dim);
}

/// Device bytes a frame's activations hold while it trains: hid-wide
/// tensors per snapshot, agg_layers + 2 of them, at full (sim_scale) size.
inline std::size_t activation_bytes(const graph::DTDG& data, int hid,
                                    int frame_size, int agg_layers) {
  return static_cast<std::size_t>(data.num_nodes) * data.sim_scale * hid *
         sizeof(float) * frame_size * (agg_layers + 2);
}

/// Simulated-time summary of one training run, extracted from the Timeline.
struct TrainResult {
  double total_us = 0.0;        ///< Makespan.
  double transfer_us = 0.0;     ///< H2D + D2H busy time.
  double compute_us = 0.0;      ///< Compute-engine busy time.
  double host_us = 0.0;         ///< CPU (launch + framework) busy time.
  double prep_us = 0.0;         ///< Worker-lane host prep busy time, summed
                                ///< over lanes (charged from counts by
                                ///< host/prep_cost.hpp, §4.3).
  double sm_utilization = 0.0;  ///< Compute busy fraction (Fig. 3 right axis).
  double device_active = 0.0;   ///< nvidia-smi style utilization (Table 2).
  /// Sim time at which the first steady-state frame fully finished (host
  /// issue, transfers, kernels) — the latency the streaming extractor
  /// shrinks vs the batch one. 0 when no steady epoch ran (PiPAD only;
  /// baselines have no steady state).
  double first_steady_us = 0.0;

  /// Never set; kept only because bench/e2e/pipad_e2e.cpp still reads it.
  std::uint64_t steals = 0;

  // Set by replica::ReplicaTrainer, which trains every method. Baselines
  // always train on one device: replicas 0, no all-reduce.
  int replicas = 0;             ///< --replicas as given (0 = one device,
                                ///< an optimizer step after every frame).
  double allreduce_us = 0.0;    ///< Modeled interconnect busy time charged
                                ///< to replica 0's Link lane.
  std::vector<double> replica_total_us;  ///< Makespan per simulated device.

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

/// One device's training runtime, stepped frame by frame: a PyGT baseline
/// (baselines::make_trainer) or PiPAD (runtime::PipadTrainer). The one
/// loop, replica::ReplicaTrainer, drives it and owns the epochs, the cancel
/// check, the frame losses and the optimizer schedule; an engine owns its
/// model, its Adam and what a frame costs on its simulated device.
class StepEngine {
 public:
  virtual ~StepEngine() = default;

  virtual DgnnModel& model() = 0;
  /// Per-run setup; returns the epoch's frames (cut to max_frames_per_epoch).
  virtual const std::vector<graph::Frame>& begin_steps() = 0;
  /// Enter an epoch; `prep_frames` are the frames this engine trains in it.
  virtual void begin_epoch(int epoch,
                           const std::vector<graph::Frame>& prep_frames) = 0;
  /// Train one frame at the current params, leaving the gradients in
  /// params(); returns the frame loss. `step_follows` promises that
  /// apply_step() is the next call on this engine: the optimizer's kernels
  /// then issue with the frame, ahead of its loss copy.
  virtual float grad_frame(const graph::Frame& frame, bool step_follows) = 0;
  /// Optimizer step on whatever is in params()' grads now.
  virtual void apply_step() = 0;
  /// The model parameters in canonical (model-defined) order.
  virtual const std::vector<nn::Parameter*>& params() const = 0;
  /// Gate the engine's transfers on a staged infeed shard: the next
  /// frame's H2D copies may not ship before sim time `ready_us`.
  virtual void set_stage_ready(double ready_us) = 0;
  /// Gate both device streams at `ready_us` (the round's all-reduce end).
  virtual void barrier_at(double ready_us) = 0;
  /// Summarize this engine's timeline (frame_loss is left to the loop).
  virtual TrainResult finish_steps() = 0;
};

/// Forward + backward of `frame` over `data`'s snapshots from zeroed
/// gradients: leaves the frame's gradients in `params`, returns its loss.
inline float train_frame(DgnnModel& model, FrameExecutor& ex,
                         const graph::DTDG& data, const graph::Frame& frame,
                         const std::vector<nn::Parameter*>& params) {
  std::vector<const Tensor*> xs, ys;
  for (int i = 0; i < frame.size; ++i) {
    xs.push_back(&data.snapshots[frame.start + i].features);
    ys.push_back(&data.targets[frame.start + i]);
  }
  nn::zero_grads(params);
  return model.train_frame(ex, xs, ys);
}

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
