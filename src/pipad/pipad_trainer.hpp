// PiPAD: pipelined and parallel DGNN training (§4).
//
// The trainer implements the full runtime of Fig. 7:
//   - online graph analyzer: CSR -> sliced CSR conversion, charged to the
//     background CPU lane at its real measured cost (§4.3);
//   - data preparation: per-partition overlap extraction, cached per
//     (start, S_per) and likewise charged at measured cost;
//   - preparing epochs: one-snapshot training with asynchronous transfers,
//     while profiling per-snapshot sizes/overlap and filling the CPU-side
//     layer-0 aggregation cache;
//   - steady epochs: per frame, the dynamic tuner picks S_per (memory bound,
//     offline speedup estimate, pipeline-stall rejection — §4.4 /
//     pipad/tuner.hpp), partition extraction streams in first-use order on
//     the worker lanes with an adaptive in-flight window (HostStream),
//     partition data moves over a dedicated copy
//     stream, the dimension-aware parallel GNN processes each partition
//     (§4.2), GPU-resident reuse results skip transfers entirely, and
//     kernels are batched through a CUDA graph.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/gpu.hpp"
#include "graph/dtdg.hpp"
#include "models/training.hpp"
#include "pipad/tuner.hpp"

namespace pipad::runtime {

struct PipadOptions {
  std::vector<int> sper_options = {2, 4, 8};  ///< Finite S_per set (§4.3).
  int slice_bound = 32;        ///< Max nnz per slice (§4.1).
  int coalesce_num = 4;        ///< Max thread groups per warp (§4.2).
  int preparing_epochs = 1;
  bool enable_reuse = true;        ///< Inter-frame reuse (§4.4).
  bool enable_pipeline = true;     ///< Async partition transfers (§4.3).
  bool enable_cuda_graph = true;   ///< Batched kernel launches (§4.2).
  bool enable_weight_reuse = true; ///< Locality-optimized update (§4.2).
  int forced_sper = 0;             ///< >0 bypasses the tuner (ablations).
  /// Width of the process-wide common::ComputePool, which executes both
  /// host-side preparation (slicing, overlap extraction — via
  /// host::HostLane) and the numeric hot path (aggregation, GEMM,
  /// elementwise kernels). Every prep job's measured wall-clock is
  /// charged to the worker lane it ran on; the kernels are charged to the
  /// device from the gpusim cost model. 0 = library default
  /// (min(hardware_concurrency, 8)).
  int host_threads = 0;
  /// Cooperative cancellation: when non-null and set, training throws
  /// pipad::Cancelled at the next round boundary (every frame under
  /// --replicas 0). The pointee must outlive the trainer; the serve
  /// scheduler points it at the job's cancel flag.
  const std::atomic<bool>* cancel = nullptr;

  // ---- Training schedule (src/replica, ReplicaTrainer) ----
  /// Number of simulated devices, K = max(1, replicas). 0 is PiPAD's own
  /// schedule: one device and an optimizer step after every frame. K >= 1
  /// synchronizes K devices once per round of 4 frames, so even
  /// --replicas 1 uses the round/all-reduce schedule and results are
  /// bit-identical across replica counts.
  int replicas = 0;
  /// All-reduce schedule charged to the modeled interconnect: "ring"
  /// (bandwidth-optimal, 2(K-1) chunked steps) or "tree" (latency-optimal,
  /// 2*ceil(log2 K) full-size steps). Timing model only — the numeric
  /// reduction is always the canonical fixed-order sum, so the choice can
  /// never change a single bit of the result.
  std::string allreduce = "ring";
};

/// The per-device PiPAD step engine. replica::ReplicaTrainer is the one
/// loop that trains it: that loop interleaves frames from K engines and
/// owns the optimizer schedule — grad_frame() trains one frame at the
/// current parameters WITHOUT stepping, the loop reduces a round's
/// gradients in canonical order, then apply_step() advances this engine's
/// Adam.
class PipadTrainer {
 public:
  PipadTrainer(gpusim::Gpu& gpu, const graph::DTDG& data,
               models::TrainConfig cfg, PipadOptions opts = {});
  ~PipadTrainer();

  models::DgnnModel& model();

  /// S_per decisions made by the tuner, keyed by frame start.
  const std::map<int, int>& sper_decisions() const;

  /// Analyzer + profiling over the full epoch frame list (so tuner inputs
  /// are replica-invariant) + reuse budget. Returns the frame list. Does
  /// NOT discard ComputePool regions — the driver does that once.
  const std::vector<graph::Frame>& begin_steps();
  /// Enter an epoch; `prep_frames` is the subset this trainer will actually
  /// train (steady-state partition extraction covers only those).
  void begin_epoch(int epoch, const std::vector<graph::Frame>& prep_frames);
  /// Train one frame at the current params, leaving the gradients in
  /// params(); returns the frame loss. `step_follows` promises that
  /// apply_step() is the next call on this trainer: the optimizer's kernels
  /// then join the frame's CUDA graph instead of a graph of their own,
  /// PiPAD's per-frame schedule.
  float grad_frame(const graph::Frame& frame, bool step_follows = false);
  /// Optimizer step on whatever is in params()' grads now.
  void apply_step();
  /// The model parameters in canonical (model-defined) order.
  const std::vector<nn::Parameter*>& params() const;
  /// Gate this trainer's transfer stream on a staged infeed shard: the next
  /// frame's H2D copies may not ship before sim time `ready_us`.
  void set_stage_ready(double ready_us);
  /// Gate both device streams at `ready_us` (the round's all-reduce end).
  void barrier_at(double ready_us);
  /// Summarize this trainer's timeline (frame_loss left to the driver).
  models::TrainResult finish_steps();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pipad::runtime
