// T-GCN [Zhao et al. T-ITS'19] — integrated DGNN (Fig. 2c).
//
// A GRU whose input transforms are replaced by 1-layer GCNs on the raw
// snapshot features: per gate g ∈ {z, r, n},
//     u_g(t) = (\hat{A}_t X_t) W_g          (graph conv on X only)
//     z = σ(u_z + h U_z + b_z),  r = σ(u_r + h U_r + b_r)
//     n = tanh(u_n + (r ⊙ h) U_n + b_n),   h' = (1-z) ⊙ n + z ⊙ h
// All aggregation operates on raw features (layer 0) — which is why
// inter-frame reuse eliminates *every* aggregation in T-GCN (§5.2), while
// PiPAD still accelerates the three gate updates with weight reuse.
#pragma once

#include "models/model.hpp"
#include "nn/linear.hpp"

namespace pipad::models {

class TGcn final : public DgnnModel {
 public:
  TGcn(int in_dim, int hidden_dim, Rng& rng);

  std::string name() const override { return "T-GCN"; }
  float train_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                    const std::vector<const Tensor*>& targets) override;
  float eval_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                   const std::vector<const Tensor*>& targets) override;
  std::vector<nn::Parameter*> params() override;
  int num_agg_layers() const override { return 1; }

  // One recurrent step and its backward, public so a step can be checked
  // in isolation. Each runs its gate elementwise math as fused passes.
  struct StepCache {
    Tensor h_prev;
    Tensor z, r, n;
    Tensor rh;  ///< r ⊙ h_prev.
  };

  /// One recurrent step given the precomputed gate inputs.
  Tensor step(const Tensor& uz, const Tensor& ur, const Tensor& un,
              const Tensor& h_prev, StepCache& cache,
              kernels::KernelRecorder* rec);

  /// Backward of step(): fills d_uz/d_ur/d_un and returns dh_prev;
  /// accumulates U-matrix grads.
  Tensor step_backward(const StepCache& cache, const Tensor& dh,
                       Tensor& d_uz, Tensor& d_ur, Tensor& d_un,
                       kernels::KernelRecorder* rec);

 private:
  float run_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                  const std::vector<const Tensor*>& targets, bool train);

  int hid_ = 0;
  nn::Linear gate_z_, gate_r_, gate_n_;  ///< GCN update weights W_g (in->hid).
  nn::Linear hz_, hr_, hn_;              ///< Hidden transforms U_g (hid->hid).
  nn::Linear head_;
};

}  // namespace pipad::models
