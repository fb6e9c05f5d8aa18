#include "nn/linear.hpp"

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::nn {

namespace {
void record_gemm(kernels::KernelRecorder* rec, const std::string& name,
                 int m, int k, int n) {
  if (rec != nullptr) rec->record(name, kernels::gemm_stats(m, k, n));
}
}  // namespace

Tensor Linear::forward(const Tensor& x, kernels::KernelRecorder* rec,
                       const std::string& tag) const {
  Tensor y = forward_unbiased(x, rec, tag);
  ops::add_bias(y, b_.value);
  return y;
}

Tensor Linear::forward_unbiased(const Tensor& x, kernels::KernelRecorder* rec,
                                const std::string& tag) const {
  Tensor y = ops::matmul(x, w_.value);
  record_gemm(rec, "gemm:" + tag, x.rows(), x.cols(), w_.value.cols());
  return y;
}

Tensor Linear::backward(const Tensor& x, const Tensor& dy,
                        kernels::KernelRecorder* rec, const std::string& tag,
                        bool leaf_input) {
  // dW += x^T dy ; db += colsum(dy) ; dx = dy W^T.
  ops::gemm(x, dy, w_.grad, /*trans_a=*/true, /*trans_b=*/false, 1.0f, 1.0f);
  ops::add_inplace(b_.grad, ops::bias_grad(dy));
  Tensor dx;
  if (!leaf_input) dx = ops::matmul(dy, w_.value, false, /*trans_b=*/true);
  record_gemm(rec, "gemm:" + tag + ".dw", x.cols(), x.rows(), dy.cols());
  record_gemm(rec, "gemm:" + tag + ".dx", dy.rows(), dy.cols(),
              w_.value.rows());
  return dx;
}

}  // namespace pipad::nn
