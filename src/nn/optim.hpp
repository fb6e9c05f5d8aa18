// Optimizers: SGD and Adam [Kingma & Ba 2015].
#pragma once

#include <vector>

#include "kernels/recorder.hpp"
#include "nn/parameter.hpp"

namespace pipad::nn {

class Sgd {
 public:
  explicit Sgd(float lr = 1e-2f) : lr_(lr) {}
  void step(const std::vector<Parameter*>& params);

 private:
  float lr_;
};

class Adam {
 public:
  explicit Adam(float lr = 1e-3f, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  /// Per-parameter moment buffers are keyed by position, so the param list
  /// must be stable across steps.
  void step(const std::vector<Parameter*>& params);

  /// The modeled kernels of one step() on `params`: one elementwise
  /// "ew:optim" kernel per parameter (the numerics run in step()).
  static void record_step(const std::vector<Parameter*>& params,
                          kernels::KernelRecorder& rec);

  int iterations() const { return t_; }

 private:
  float lr_, beta1_, beta2_, eps_;
  int t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace pipad::nn
