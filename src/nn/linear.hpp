// Fully connected layer with explicit manual backward.
//
// Forward and backward GEMMs are reported to the KernelRecorder so training
// loops can attribute simulated time to the update phase.
#pragma once

#include <string>
#include <vector>

#include "kernels/recorder.hpp"
#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace pipad::nn {

class Linear {
 public:
  Linear() = default;
  Linear(int in, int out, Rng& rng)
      : w_(Parameter::glorot(in, out, rng)), b_(Parameter::zeros(1, out)) {}

  /// y = x * W + b.
  Tensor forward(const Tensor& x, kernels::KernelRecorder* rec,
                 const std::string& tag) const;

  /// y = x * W, recorded like forward(), for callers that add bias() inside
  /// a fused elementwise pass.
  Tensor forward_unbiased(const Tensor& x, kernels::KernelRecorder* rec,
                          const std::string& tag) const;

  /// Given the cached input x and upstream dy: accumulates dW, db and
  /// returns dx. With leaf_input, dx is neither needed nor computed (the
  /// result is empty), but its GEMM is still recorded.
  Tensor backward(const Tensor& x, const Tensor& dy,
                  kernels::KernelRecorder* rec, const std::string& tag,
                  bool leaf_input = false);

  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }
  const Parameter& weight() const { return w_; }
  const Parameter& bias() const { return b_; }
  int in_dim() const { return w_.value.rows(); }
  int out_dim() const { return w_.value.cols(); }

  std::vector<Parameter*> params() { return {&w_, &b_}; }

 private:
  Parameter w_;  ///< [in x out].
  Parameter b_;  ///< [1 x out].
};

}  // namespace pipad::nn
