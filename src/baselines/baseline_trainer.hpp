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

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/gpu.hpp"
#include "graph/dtdg.hpp"
#include "models/training.hpp"

namespace pipad::baselines {

enum class Variant { PyGT, PyGTA, PyGTR, PyGTG };

const char* variant_name(Variant v);

class BaselineTrainer {
 public:
  /// `cancel` is cooperative cancellation: when non-null and set, train()
  /// throws pipad::Cancelled at the next frame boundary (see
  /// PipadOptions::cancel).
  BaselineTrainer(gpusim::Gpu& gpu, const graph::DTDG& data,
                  models::TrainConfig cfg, Variant variant,
                  const std::atomic<bool>* cancel = nullptr);
  ~BaselineTrainer();

  /// Run the configured number of epochs; the Gpu timeline accumulates the
  /// simulated schedule, summarized into the returned TrainResult.
  models::TrainResult train();

  models::DgnnModel& model();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pipad::baselines
