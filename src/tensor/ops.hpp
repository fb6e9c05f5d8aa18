// Tensor operations: GEMM, elementwise maps, reductions, concat/split.
//
// All operations check shapes via PIPAD_CHECK and are deterministic. The
// heavy ops execute as row/element-blocked regions on the process-wide
// common::ComputePool; block layouts never depend on the pool width and
// every output row/element is computed in serial order, so results are
// bit-identical for any --threads value. Order-sensitive reductions
// (mse_loss, sum, frobenius_norm) run serially for the same reason.
//
// Accumulation-order contract. Each op's result is defined by an in-order
// scalar loop, and a faster implementation must reproduce it bit for bit:
//   - gemm: C[i][j] starts from beta * C[i][j] (exactly 0 when beta == 0,
//     C itself when beta == 1), then adds (alpha * A[i][k]) * B[k][j] for
//     k ascending, skipping every k where alpha * A[i][k] == 0.0f (so +0
//     and -0 both skip);
//   - bias_grad: each column sums its rows in ascending order from +0;
//   - no multiply-add contraction: every product is rounded before it is
//     added (the build passes -ffp-contract=off, so FMA-capable targets
//     round the same way as the x86-64 baseline).
// Vectorizing across output columns and blocking over rows or columns is
// free under this contract; reordering or splitting the k sum is not.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>

#include "common/compute_pool.hpp"
#include "tensor/tensor.hpp"

namespace pipad::ops {

// ---- Parallel building blocks (the ops below and fused RNN-cell passes) ----
/// Run fn(r) for every row r in [0, rows) as one region on the shared
/// ComputePool, in row blocks whose layout never depends on the pool
/// width. fn must write only row r's outputs.
template <typename F>
void par_rows(int rows, std::size_t total_work, const F& fn) {
  ComputePool::instance().for_blocks(
      static_cast<std::size_t>(rows), total_work,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) fn(static_cast<int>(r));
      });
}

/// Run fn(lo, hi) over element blocks of [0, n) as one region. fn must
/// compute element i from index i alone.
template <typename F>
void par_elems(std::size_t n, const F& fn) {
  ComputePool::instance().for_blocks(n, n, fn);
}

/// Scalar activations and gradients, shared by the tensor ops below and the
/// fused RNN-cell passes so that both round the same way.
inline float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
/// dx given y = sigmoid(x): dy * y * (1 - y).
inline float sigmoid_grad(float dy, float y) { return dy * y * (1.0f - y); }
/// dx given y = tanh(x): dy * (1 - y^2).
inline float tanh_grad(float dy, float y) { return dy * (1.0f - y * y); }

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// trans_a/trans_b select op(X) = X or X^T.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a = false,
          bool trans_b = false, float alpha = 1.0f, float beta = 0.0f);

/// Convenience: returns op(A)*op(B).
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// y[r][c] += bias[c] for every row.
void add_bias(Tensor& y, const Tensor& bias);

/// grad_bias[c] = sum_r grad[r][c].
Tensor bias_grad(const Tensor& grad);

// ---- Elementwise ----
void add_inplace(Tensor& a, const Tensor& b, float scale = 1.0f);
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);  ///< Hadamard product.
void scale_inplace(Tensor& a, float s);

Tensor relu(const Tensor& x);
/// dx = dy where x > 0 else 0.
Tensor relu_grad(const Tensor& dy, const Tensor& x);

Tensor sigmoid(const Tensor& x);
/// dx given y = sigmoid(x): dy * y * (1 - y).
Tensor sigmoid_grad(const Tensor& dy, const Tensor& y);

Tensor tanh(const Tensor& x);
/// dx given y = tanh(x): dy * (1 - y^2).
Tensor tanh_grad(const Tensor& dy, const Tensor& y);

// ---- Concatenation along columns (for RNN gate inputs [x, h]) ----
Tensor concat_cols(const Tensor& a, const Tensor& b);
/// Split columns back: (grad wrt a, grad wrt b) with a_cols columns in a.
std::pair<Tensor, Tensor> split_cols(const Tensor& ab, int a_cols);

/// Copy columns [start, start+len) into a new tensor (gate extraction).
Tensor slice_cols(const Tensor& t, int start, int len);
/// dst[:, start:start+len] += src (gate-gradient scatter).
void add_into_cols(Tensor& dst, const Tensor& src, int start);

// ---- Reductions / losses ----
/// Mean squared error over all elements; also writes d(loss)/d(pred) into
/// grad if non-null.
float mse_loss(const Tensor& pred, const Tensor& target,
               Tensor* grad = nullptr);

float sum(const Tensor& a);
float max_abs_diff(const Tensor& a, const Tensor& b);
float frobenius_norm(const Tensor& a);

/// True iff all elements are finite (guards against training divergence).
bool all_finite(const Tensor& a);

}  // namespace pipad::ops
