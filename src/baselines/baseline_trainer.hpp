// The PyGT baseline family (§5.1): one-snapshot-at-a-time DGNN training.
//
//   PyGT    — PyTorch Geometric Temporal behaviour: COO aggregation,
//             synchronous pageable-memory transfers, every frame re-ships
//             every snapshot it touches.
//   PyGT-A  — + asynchronous pinned-memory transfers on a copy stream.
//   PyGT-R  — + inter-frame reuse: layer-0 aggregation results are cached in
//             CPU memory after first computation; later frames transfer the
//             cached result instead of recomputing (and skip the topology
//             transfer entirely for single-GCN-layer models like T-GCN).
//   PyGT-G  — PyGT-R with the COO kernel replaced by GE-SpMM (CSR shared-
//             memory aggregation), which requires shipping CSR + CSC for
//             forward + backward.
//
// The incremental design lets every optimization be measured in isolation,
// exactly as the paper's evaluation does.
#pragma once

#include <memory>

#include "gpusim/gpu.hpp"
#include "graph/dtdg.hpp"
#include "models/training.hpp"

namespace pipad::baselines {

/// The step engine of PyGT variant `method` (anything but PiPAD) on `gpu`.
/// Baselines train on one device: replica::ReplicaTrainer drives a single
/// engine and steps it after every frame.
std::unique_ptr<models::StepEngine> make_trainer(gpusim::Gpu& gpu,
                                                 const graph::DTDG& data,
                                                 models::TrainConfig cfg,
                                                 models::Method method);

}  // namespace pipad::baselines
