// The one training loop, for every method's step engine
// (models::StepEngine): it owns the epochs, the cancel check, the frame
// losses and the result. PiPAD may train on K simulated devices: K
// PipadTrainers — each with its own simulated Gpu/Timeline (replica 0 runs
// on the caller's Gpu so `pipad trace`/`analyze` keep working unchanged) —
// run the pipelined epoch over disjoint frame subsets, fed by a modeled
// per-replica infeed, and synchronize through a gradient all-reduce
// charged to each replica's Resource::Link lane. `--replicas 0` is the
// one-device case with one-frame rounds and no infeed staging: an
// optimizer step after every frame, PiPAD's own schedule (§4, Fig. 7) and
// the only one a PyGT baseline trains under.
//
// Determinism argument (the repo's wall — bit-identical losses and params
// for ANY --replicas x --threads combination, K >= 1):
//   - Frames are grouped into rounds of a fixed size G that never depends
//     on K (4 frames; 1 under --replicas 0). Every frame's gradient is
//     computed at the round-start parameters — no replica steps its
//     optimizer mid-round — so the per-frame gradients are pure functions
//     of (dataset, round-start params, frame).
//   - Frame -> replica assignment is the pure function (j % G) % K of the
//     within-epoch frame index j: scheduling moves WHERE a gradient is
//     computed, never WHAT is computed.
//   - The reduction sums the round's per-frame gradients in global frame
//     order with one float accumulator per element and divides by the
//     round size (allreduce.hpp) — canonical arithmetic; the ring model
//     only times the interconnect. A one-frame round is an exact copy
//     divided by 1.
//   - Every replica applies the identical averaged gradient to identical
//     parameters with its own (position-keyed, therefore lockstep) Adam,
//     so replicas never diverge and replica 0's model IS the result.
//   - Tuner inputs (profiling statistics) are computed over the FULL epoch
//     frame list per replica, so every replica makes the same S_per
//     decisions whichever frames it trains.
#pragma once

#include <map>
#include <memory>

#include "gpusim/gpu.hpp"
#include "graph/dtdg.hpp"
#include "models/training.hpp"
#include "pipad/pipad_trainer.hpp"

namespace pipad::replica {

class ReplicaTrainer {
 public:
  /// Trains `method`. opts.replicas selects K = max(1, replicas) and the
  /// round size (one frame when replicas == 0, else 4); opts.cancel is
  /// checked at every round boundary. The other options tune PiPAD only.
  /// Throws Error on replicas > 0 for a baseline.
  ReplicaTrainer(gpusim::Gpu& gpu, const graph::DTDG& data,
                 models::TrainConfig cfg,
                 models::Method method = models::Method::PiPAD,
                 runtime::PipadOptions opts = {});
  ~ReplicaTrainer();

  models::TrainResult train();

  /// Replica 0's model — identical to every other replica's (see the
  /// determinism argument above).
  models::DgnnModel& model();

  /// Replica 0's S_per decisions, keyed by frame start (after train());
  /// empty for a baseline.
  const std::map<int, int>& sper_decisions() const;

  int replicas() const;

  /// Replica k's timeline (k = 0 is the caller's Gpu). Valid after train().
  const gpusim::Timeline& replica_timeline(int k) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pipad::replica
