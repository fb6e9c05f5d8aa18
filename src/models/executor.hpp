// FrameExecutor: the seam between DGNN models and training runtimes.
//
// Models describe *what* to compute for a frame (GCN layers, RNN chains,
// heads); the executor decides *how*: which aggregation kernel runs, whether
// snapshots are processed one-at-a-time (PyGT baselines) or partition-
// parallel with coalesced features (PiPAD §4.2), whether layer-0 aggregation
// comes from the inter-frame reuse cache (§4.4), and whether update GEMMs
// share weight tiles across snapshots.
//
// Layer ids: 0 denotes aggregation over the frame's *raw input features* —
// time-invariant w.r.t. parameters, hence cacheable and exempt from
// backward. Layers >= 1 aggregate activations and always need backward.
// For the same reason an update whose inputs are layer-0 aggregations has
// leaf inputs: its backward accumulates the weight gradients only.
#pragma once

#include <string>
#include <vector>

#include "kernels/recorder.hpp"
#include "nn/linear.hpp"
#include "tensor/tensor.hpp"

namespace pipad::models {

class FrameExecutor {
 public:
  virtual ~FrameExecutor() = default;

  /// Normalized aggregation for every snapshot of the current frame:
  /// out[t] = (A_t x_t + x_t) / (deg_t + 1). xs.size() equals the frame
  /// size and indexes snapshots in frame order.
  virtual std::vector<Tensor> aggregate(const std::vector<const Tensor*>& xs,
                                        int layer_id,
                                        const std::string& tag) = 0;

  /// Backward through the normalized aggregation:
  /// d_x[t] = A_t^T (d_h[t]/(deg_t+1)) + d_h[t]/(deg_t+1).
  /// Never called with layer_id == 0 (inputs are leaves).
  virtual std::vector<Tensor> aggregate_backward(
      const std::vector<Tensor>& d_h, int layer_id,
      const std::string& tag) = 0;

  /// Per-snapshot FC update hs[t] * W + b with snapshot-shared weights.
  virtual std::vector<Tensor> update(const std::vector<const Tensor*>& hs,
                                     nn::Linear& lin,
                                     const std::string& tag) = 0;

  /// Backward of update(): accumulates lin's grads, returns d_hs. With
  /// leaf_inputs, nothing consumes d_hs: its tensors are left empty, not
  /// computed, but their GEMMs are still recorded, so the modeled schedule
  /// is the same either way.
  virtual std::vector<Tensor> update_backward(
      const std::vector<Tensor>& d_y, const std::vector<const Tensor*>& hs,
      nn::Linear& lin, const std::string& tag, bool leaf_inputs) = 0;

  /// Recorder for RNN / head / loss kernels the model launches directly.
  virtual kernels::KernelRecorder* recorder() = 0;
};

}  // namespace pipad::models
