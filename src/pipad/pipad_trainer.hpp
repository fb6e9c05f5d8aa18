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
  double framework_us_per_launch = 2.0;  ///< Lean C++ host path.
  /// Width of the process-wide common::ComputePool, which executes both
  /// host-side preparation (slicing, overlap extraction — via
  /// host::HostLane) and the numeric hot path (aggregation, GEMM,
  /// elementwise kernels). Every job/kernel's measured wall-clock is
  /// charged to the worker lane(s) it ran on. 0 = library default
  /// (min(hardware_concurrency, 8)).
  int host_threads = 0;
  std::size_t gpu_reuse_budget = 0;  ///< 0 = auto (remaining device memory).
  /// Cooperative cancellation: when non-null and set, training throws
  /// pipad::Cancelled at the next frame (or replica-round) boundary. The
  /// pointee must outlive the trainer; the serve scheduler points it at the
  /// job's cancel flag.
  const std::atomic<bool>* cancel = nullptr;

  // ---- Replicated data-parallel training (src/replica, ReplicaTrainer) ----
  /// Number of simulated devices. 0 keeps the classic single-trainer path
  /// (per-frame optimizer steps); >= 1 routes through ReplicaTrainer's
  /// round-based synchronous data parallelism, where even --replicas 1 uses
  /// the round/all-reduce schedule so results are bit-identical across
  /// replica counts.
  int replicas = 0;
  /// All-reduce schedule charged to the modeled interconnect: "ring"
  /// (bandwidth-optimal, 2(K-1) chunked steps) or "tree" (latency-optimal,
  /// 2*ceil(log2 K) full-size steps). Timing model only — the numeric
  /// reduction is always the canonical fixed-order sum, so the choice can
  /// never change a single bit of the result.
  std::string allreduce = "ring";
  double link_latency_us = 5.0;    ///< Per all-reduce step latency.
  double link_gb_per_s = 50.0;     ///< Interconnect bandwidth (NVLink-ish).
  /// Frames per synchronization round. Gradients of all frames in a round
  /// are computed at the round-start parameters, reduced in global frame
  /// order and applied as one optimizer step — a pure function of the frame
  /// index, so the grouping (and therefore every bit of the result) is
  /// independent of the replica count. 0 picks 4.
  int replica_round = 0;
  /// Max in-flight staged shards per replica infeed queue (0 picks 2).
  int infeed_window = 0;
};

class PipadTrainer {
 public:
  PipadTrainer(gpusim::Gpu& gpu, const graph::DTDG& data,
               models::TrainConfig cfg, PipadOptions opts = {});
  ~PipadTrainer();

  models::TrainResult train();

  models::DgnnModel& model();

  /// S_per decisions made by the tuner, keyed by frame start (after train()).
  const std::map<int, int>& sper_decisions() const;

  // ---- Step-wise driving API (src/replica's ReplicaTrainer) ----
  // The replica driver interleaves frames from K trainers and owns the
  // optimizer schedule: grad_frame() trains one frame at the current
  // parameters WITHOUT stepping, the driver reduces the gradients across
  // the round in canonical order, then apply_step() advances this
  // trainer's Adam. train() is exactly the old per-frame-step path and
  // never goes through these.

  /// Analyzer + profiling over the full epoch frame list (so tuner inputs
  /// are replica-invariant) + reuse budget. Returns the frame list. Does
  /// NOT discard ComputePool regions — the driver does that once.
  const std::vector<graph::Frame>& begin_steps();
  /// Enter an epoch; `prep_frames` is the subset this trainer will actually
  /// train (steady-state partition extraction covers only those).
  void begin_epoch(int epoch, const std::vector<graph::Frame>& prep_frames);
  /// Train one frame at the current params, leaving the gradients in
  /// params(); returns the frame loss.
  float grad_frame(const graph::Frame& frame);
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
