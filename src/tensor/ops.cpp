#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/simd_kernels.hpp"

namespace pipad::ops {

namespace {
// Row-major copy of t^T.
std::vector<float> transposed(const Tensor& t) {
  const int rows = t.rows();
  const int cols = t.cols();
  std::vector<float> out(t.size());
  for (int r = 0; r < rows; ++r) {
    const float* src = t.row(r);
    for (int c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(c) * rows + r] = src[c];
    }
  }
  return out;
}
}  // namespace

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool trans_a,
          bool trans_b, float alpha, float beta) {
  const int m = trans_a ? a.cols() : a.rows();
  const int k = trans_a ? a.rows() : a.cols();
  const int k2 = trans_b ? b.cols() : b.rows();
  const int n = trans_b ? b.rows() : b.cols();
  PIPAD_CHECK_MSG(k == k2, "gemm inner dims mismatch: " << a.shape_str()
                                                        << (trans_a ? "^T" : "")
                                                        << " * " << b.shape_str()
                                                        << (trans_b ? "^T" : ""));
  PIPAD_CHECK_MSG(c.rows() == m && c.cols() == n,
                  "gemm output shape mismatch: got " << c.shape_str());

  // All four modes run the one row kernel. Row i of op(A) is read in place:
  // contiguous, or a column of A with stride m when transposed (measured no
  // slower than packing it first). The kernel reads whole rows of op(B), so
  // a transposed B is packed into a row-major k x n copy, O(k * n) against
  // the product's O(m * k * n). Rows of C are independent, so the
  // row-blocked parallel path computes each one in the exact serial order.
  const std::vector<float> packed_b =
      trans_b ? transposed(b) : std::vector<float>();
  const simd::GemmArgs g{a.data(),
                         trans_a ? 1 : static_cast<std::size_t>(k),
                         trans_a ? static_cast<std::size_t>(m) : 1,
                         k,
                         alpha,
                         trans_b ? packed_b.data() : b.data(),
                         n,
                         c.data(),
                         beta};
  const int lanes = simd::lanes();
  const auto rows_fn =
      lanes == 8 ? simd::detail::gemm_rows_8 : simd::detail::gemm_rows_4;
  // One output column leaves no columns to vectorize across, so the kernel
  // runs one C row per lane instead: blocks then hold whole lane groups
  // (only the last group can fall short).
  const std::size_t group = n == 1 ? static_cast<std::size_t>(lanes) : 1;
  const auto rows = static_cast<std::size_t>(m);
  ComputePool::instance().for_blocks(
      (rows + group - 1) / group, rows * k * n,
      [&](std::size_t g_lo, std::size_t g_hi) {
        rows_fn(g, group * g_lo, std::min(group * g_hi, rows));
      });
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  const int m = trans_a ? a.cols() : a.rows();
  const int n = trans_b ? b.rows() : b.cols();
  Tensor c(m, n);
  gemm(a, b, c, trans_a, trans_b, 1.0f, 0.0f);
  return c;
}

void add_bias(Tensor& y, const Tensor& bias) {
  PIPAD_CHECK_MSG(bias.rows() == 1 && bias.cols() == y.cols(),
                  "bias shape " << bias.shape_str() << " vs y "
                                << y.shape_str());
  const float* b = bias.row(0);
  par_rows(y.rows(), y.size(), [&](int r) {
    float* row = y.row(r);
    for (int c = 0; c < y.cols(); ++c) row[c] += b[c];
  });
}

Tensor bias_grad(const Tensor& grad) {
  Tensor g(1, grad.cols());
  // Column-blocked: each block streams the rows once into local
  // accumulators. Every column still sums its rows in ascending order, so
  // the result is bit-identical for any block layout.
  const auto cols_fn = simd::lanes() == 8 ? simd::detail::bias_grad_8
                                          : simd::detail::bias_grad_4;
  ComputePool::instance().for_blocks(
      static_cast<std::size_t>(grad.cols()), grad.size(),
      [&](std::size_t lo, std::size_t hi) {
        cols_fn(grad.data(), grad.rows(), grad.cols(), lo, hi, g.row(0));
      });
  return g;
}

void add_inplace(Tensor& a, const Tensor& b, float scale) {
  PIPAD_CHECK_MSG(a.same_shape(b), "add_inplace shape mismatch "
                                       << a.shape_str() << " vs "
                                       << b.shape_str());
  float* pa = a.data();
  const float* pb = b.data();
  par_elems(a.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) pa[i] += scale * pb[i];
  });
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  add_inplace(c, b);
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  add_inplace(c, b, -1.0f);
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  PIPAD_CHECK_MSG(a.same_shape(b), "mul shape mismatch");
  Tensor c(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  par_elems(a.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) pc[i] = pa[i] * pb[i];
  });
  return c;
}

void scale_inplace(Tensor& a, float s) {
  float* pa = a.data();
  par_elems(a.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) pa[i] *= s;
  });
}

Tensor relu(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  const float* px = x.data();
  float* py = y.data();
  par_elems(x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) py[i] = px[i] > 0.0f ? px[i] : 0.0f;
  });
  return y;
}

Tensor relu_grad(const Tensor& dy, const Tensor& x) {
  PIPAD_CHECK_MSG(dy.same_shape(x), "relu_grad shape mismatch");
  Tensor dx(x.rows(), x.cols());
  const float* pdy = dy.data();
  const float* px = x.data();
  float* pdx = dx.data();
  par_elems(x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      pdx[i] = px[i] > 0.0f ? pdy[i] : 0.0f;
  });
  return dx;
}

Tensor sigmoid(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  const float* px = x.data();
  float* py = y.data();
  par_elems(x.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) py[i] = sigmoid(px[i]);
  });
  return y;
}

Tensor sigmoid_grad(const Tensor& dy, const Tensor& y) {
  PIPAD_CHECK_MSG(dy.same_shape(y), "sigmoid_grad shape mismatch");
  Tensor dx(y.rows(), y.cols());
  const float* pdy = dy.data();
  const float* py = y.data();
  float* pdx = dx.data();
  par_elems(y.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      pdx[i] = sigmoid_grad(pdy[i], py[i]);
  });
  return dx;
}

Tensor tanh(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  const float* px = x.data();
  float* py = y.data();
  par_elems(x.size(), [&](std::size_t lo, std::size_t hi) {
    tanh_n(px + lo, py + lo, hi - lo);
  });
  return y;
}

Tensor tanh_grad(const Tensor& dy, const Tensor& y) {
  PIPAD_CHECK_MSG(dy.same_shape(y), "tanh_grad shape mismatch");
  Tensor dx(y.rows(), y.cols());
  const float* pdy = dy.data();
  const float* py = y.data();
  float* pdx = dx.data();
  par_elems(y.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      pdx[i] = tanh_grad(pdy[i], py[i]);
  });
  return dx;
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  PIPAD_CHECK_MSG(a.rows() == b.rows(), "concat_cols row mismatch");
  Tensor c(a.rows(), a.cols() + b.cols());
  par_rows(a.rows(), c.size(), [&](int r) {
    float* crow = c.row(r);
    std::copy(a.row(r), a.row(r) + a.cols(), crow);
    std::copy(b.row(r), b.row(r) + b.cols(), crow + a.cols());
  });
  return c;
}

std::pair<Tensor, Tensor> split_cols(const Tensor& ab, int a_cols) {
  PIPAD_CHECK_MSG(a_cols >= 0 && a_cols <= ab.cols(), "split_cols bad split");
  Tensor a(ab.rows(), a_cols);
  Tensor b(ab.rows(), ab.cols() - a_cols);
  par_rows(ab.rows(), ab.size(), [&](int r) {
    const float* src = ab.row(r);
    std::copy(src, src + a_cols, a.row(r));
    std::copy(src + a_cols, src + ab.cols(), b.row(r));
  });
  return {std::move(a), std::move(b)};
}

Tensor slice_cols(const Tensor& t, int start, int len) {
  PIPAD_CHECK_MSG(start >= 0 && len >= 0 && start + len <= t.cols(),
                  "slice_cols out of range");
  Tensor out(t.rows(), len);
  par_rows(t.rows(), out.size(), [&](int r) {
    const float* src = t.row(r) + start;
    std::copy(src, src + len, out.row(r));
  });
  return out;
}

void add_into_cols(Tensor& dst, const Tensor& src, int start) {
  PIPAD_CHECK_MSG(dst.rows() == src.rows() &&
                      start + src.cols() <= dst.cols(),
                  "add_into_cols shape mismatch");
  par_rows(dst.rows(), src.size(), [&](int r) {
    float* d = dst.row(r) + start;
    const float* s = src.row(r);
    for (int c = 0; c < src.cols(); ++c) d[c] += s[c];
  });
}

float mse_loss(const Tensor& pred, const Tensor& target, Tensor* grad) {
  PIPAD_CHECK_MSG(pred.same_shape(target), "mse shape mismatch "
                                               << pred.shape_str() << " vs "
                                               << target.shape_str());
  const std::size_t n = pred.size();
  PIPAD_CHECK_MSG(n > 0, "mse on empty tensor");
  // Serial: the double accumulator's rounding depends on summation order,
  // and losses must be bit-identical across thread counts.
  double acc = 0.0;
  if (grad != nullptr && !grad->same_shape(pred)) {
    *grad = Tensor(pred.rows(), pred.cols());
  }
  const float* pp = pred.data();
  const float* pt = target.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pp[i] - pt[i];
    acc += static_cast<double>(d) * d;
    if (grad != nullptr) grad->data()[i] = 2.0f * d / static_cast<float>(n);
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

float sum(const Tensor& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a.data()[i];
  return static_cast<float>(s);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  PIPAD_CHECK_MSG(a.same_shape(b), "max_abs_diff shape mismatch");
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

float frobenius_norm(const Tensor& a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double v = a.data()[i];
    s += v * v;
  }
  return static_cast<float>(std::sqrt(s));
}

bool all_finite(const Tensor& a) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!std::isfinite(a.data()[i])) return false;
  }
  return true;
}

}  // namespace pipad::ops

namespace pipad::simd {

int lanes() {
#if defined(__x86_64__) || defined(__i386__)
  static const int kLanes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? 8 : 4;
  }();
  return kLanes;
#else
  return 4;
#endif
}

namespace detail {
void gemm_rows_4(const GemmArgs& g, std::size_t lo, std::size_t hi) {
  gemm_rows<4>(g, lo, hi);
}

void bias_grad_4(const float* grad, int rows, int cols, std::size_t lo,
                 std::size_t hi, float* out) {
  bias_grad_cols<4>(grad, rows, cols, lo, hi, out);
}
}  // namespace detail

}  // namespace pipad::simd
