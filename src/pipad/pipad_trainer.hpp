// PiPAD: pipelined and parallel DGNN training (§4).
//
// The trainer implements the full runtime of Fig. 7:
//   - online graph analyzer: CSR -> sliced CSR conversion on the background
//     CPU lanes, charged from the rows and edges it slices (§4.3,
//     host/prep_cost.hpp);
//   - data preparation: per-partition overlap extraction, cached per
//     (start, S_per) and likewise charged from its counts;
//   - preparing epochs: one-snapshot training with asynchronous transfers,
//     while profiling per-snapshot sizes/overlap and filling the CPU-side
//     layer-0 aggregation cache;
//   - steady epochs: per frame, the dynamic tuner picks S_per (memory bound,
//     offline speedup estimate, pipeline-stall rejection — §4.4 /
//     pipad/tuner.hpp), partition extraction streams in first-use order on
//     the worker lanes with a bounded in-flight window (HostStream),
//     partition data moves over a dedicated copy
//     stream, the dimension-aware parallel GNN processes each partition
//     (§4.2), GPU-resident reuse results skip transfers entirely, and
//     kernels are batched through a CUDA graph.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/gpu.hpp"
#include "graph/dtdg.hpp"
#include "models/training.hpp"
#include "pipad/tuner.hpp"

namespace pipad::runtime {

struct PipadOptions {
  int slice_bound = 32;        ///< Max nnz per slice (§4.1).
  int preparing_epochs = 1;
  bool enable_reuse = true;        ///< Inter-frame reuse (§4.4).
  bool enable_pipeline = true;     ///< Async partition transfers (§4.3).
  bool enable_cuda_graph = true;   ///< Batched kernel launches (§4.2).
  bool enable_weight_reuse = true; ///< Locality-optimized update (§4.2).
  int forced_sper = 0;             ///< >0 bypasses the tuner (ablations).
  /// Width of the process-wide common::ComputePool, which executes both
  /// host-side preparation (slicing, overlap extraction — via
  /// host::HostLane) and the numeric hot path (aggregation, GEMM,
  /// elementwise kernels). It sets the real pool width and nothing else:
  /// prep is charged from counts (host/prep_cost.hpp) and the kernels from
  /// the gpusim cost model. 0 = library default
  /// (min(hardware_concurrency, 8)).
  int host_threads = 0;
  /// Cooperative cancellation, checked by the training loop
  /// (replica::ReplicaTrainer) for every method: when non-null and set,
  /// training throws pipad::Cancelled at the next round boundary (every
  /// frame under --replicas 0). The pointee must outlive the trainer; the
  /// serve scheduler points it at the job's cancel flag.
  const std::atomic<bool>* cancel = nullptr;

  // ---- Training schedule (src/replica, ReplicaTrainer) ----
  /// Number of simulated devices, K = max(1, replicas). 0 is PiPAD's own
  /// schedule: one device and an optimizer step after every frame. K >= 1
  /// synchronizes K devices once per round of 4 frames, so even
  /// --replicas 1 uses the round/all-reduce schedule and results are
  /// bit-identical across replica counts.
  int replicas = 0;
};

/// (start, count) of the partitions a frame splits into at S_per = s_per:
/// consecutive chunks of up to s_per snapshots (§4.4 distributes snapshots
/// uniformly), clipped to the dataset's `num_snapshots`.
std::vector<std::pair<int, int>> frame_partitions(const graph::Frame& frame,
                                                  int s_per,
                                                  int num_snapshots);

/// The per-device PiPAD step engine (models::StepEngine, which documents
/// the step API). replica::ReplicaTrainer drives it: that loop interleaves
/// frames from K engines, reduces a round's gradients in canonical order,
/// then steps every engine's Adam.
class PipadTrainer final : public models::StepEngine {
 public:
  PipadTrainer(gpusim::Gpu& gpu, const graph::DTDG& data,
               models::TrainConfig cfg, PipadOptions opts = {});
  ~PipadTrainer() override;

  models::DgnnModel& model() override;

  /// S_per decisions made by the tuner, keyed by frame start.
  const std::map<int, int>& sper_decisions() const;

  /// Analyzer + profiling over the full epoch frame list (so tuner inputs
  /// are replica-invariant) + reuse budget. Returns the frame list.
  const std::vector<graph::Frame>& begin_steps() override;
  /// Steady epochs extract partitions for `prep_frames` only.
  void begin_epoch(int epoch,
                   const std::vector<graph::Frame>& prep_frames) override;
  /// With `step_follows`, the optimizer's kernels join the frame's CUDA
  /// graph instead of a graph of their own: PiPAD's per-frame schedule.
  float grad_frame(const graph::Frame& frame,
                   bool step_follows = false) override;
  void apply_step() override;
  const std::vector<nn::Parameter*>& params() const override;
  void set_stage_ready(double ready_us) override;
  void barrier_at(double ready_us) override;
  models::TrainResult finish_steps() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pipad::runtime
