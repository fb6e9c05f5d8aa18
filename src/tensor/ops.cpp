#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/simd.hpp"

namespace pipad::ops {

namespace {
using simd::load4;
using simd::select;
using simd::splat;
using simd::store4;
using simd::v4f;

// Columns of one C row kept in registers across the whole k loop.
constexpr int kStrip = 32;

// One strip of one C row: c[0, W) = beta * c[0, W), then for kk ascending
// c[j] += (alpha * a[kk * lda]) * b[kk * ldb + j], skipping every kk whose
// alpha * a[kk * lda] is exactly zero. That is the in-order scalar loop's
// order of operations for every element, so the result is bit-identical
// to it.
template <int W>
inline void gemm_strip(const float* a, std::size_t lda, int k, float alpha,
                       const float* b, std::size_t ldb, float* c, float beta) {
  if constexpr (W % 4 == 0) {
    constexpr std::size_t kQ = W / 4;
    const v4f betav = {beta, beta, beta, beta};
    v4f acc[kQ];
    for (std::size_t q = 0; q < kQ; ++q) {
      acc[q] = beta == 0.0f ? v4f{} : load4(c + 4 * q);
      if (beta != 0.0f && beta != 1.0f) acc[q] *= betav;
    }
    for (int kk = 0; kk < k; ++kk) {
      const float av = alpha * a[kk * lda];
      if (av == 0.0f) continue;
      const v4f avv = {av, av, av, av};
      const float* brow = b + kk * ldb;
      for (std::size_t q = 0; q < kQ; ++q) acc[q] += avv * load4(brow + 4 * q);
    }
    for (std::size_t q = 0; q < kQ; ++q) store4(c + 4 * q, acc[q]);
  } else {
    static_assert(W == 1);
    float acc = beta == 0.0f ? 0.0f : c[0];
    if (beta != 0.0f && beta != 1.0f) acc *= beta;
    for (int kk = 0; kk < k; ++kk) {
      const float av = alpha * a[kk * lda];
      if (av == 0.0f) continue;
      acc += av * b[kk * ldb];
    }
    c[0] = acc;
  }
}

// One C row of n columns: full 32-column strips, then the tail in strips
// of 16, 8, 4 and 1. Strip widths never change an element's operations.
void gemm_row(const float* a, std::size_t lda, int k, float alpha,
              const float* b, int n, float* c, float beta) {
  const auto ldb = static_cast<std::size_t>(n);
  int j = 0;
  for (; j + kStrip <= n; j += kStrip) {
    gemm_strip<kStrip>(a, lda, k, alpha, b + j, ldb, c + j, beta);
  }
  if (n - j >= 16) {
    gemm_strip<16>(a, lda, k, alpha, b + j, ldb, c + j, beta);
    j += 16;
  }
  if (n - j >= 8) {
    gemm_strip<8>(a, lda, k, alpha, b + j, ldb, c + j, beta);
    j += 8;
  }
  if (n - j >= 4) {
    gemm_strip<4>(a, lda, k, alpha, b + j, ldb, c + j, beta);
    j += 4;
  }
  for (; j < n; ++j) gemm_strip<1>(a, lda, k, alpha, b + j, ldb, c + j, beta);
}

// A one-column C (n == 1): four rows at once, lane r holding row r's
// accumulator, where row r reads op(A) at a[r * row_step + kk * lda]. Each
// lane runs gemm_strip<1>'s loop; a lane whose alpha * a is exactly zero
// keeps its accumulator (a blend), as the scalar loop's skip does.
void gemm_col4(const float* a, std::size_t row_step, std::size_t lda, int k,
               float alpha, const float* b, float* c, float beta) {
  v4f acc = beta == 0.0f ? v4f{} : load4(c);
  if (beta != 0.0f && beta != 1.0f) acc *= splat(beta);
  const v4f alphav = splat(alpha);
  for (int kk = 0; kk < k; ++kk) {
    const float* ak = a + kk * lda;
    const v4f av =
        alphav * (row_step == 1 ? load4(ak)
                                : v4f{ak[0], ak[row_step], ak[2 * row_step],
                                      ak[3 * row_step]});
    acc = select(av == splat(0.0f), acc, acc + av * splat(b[kk]));
  }
  store4(c, acc);
}

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
  const float* pb = trans_b ? packed_b.data() : b.data();
  const std::size_t lda = trans_a ? static_cast<std::size_t>(m) : 1;
  const std::size_t work = static_cast<std::size_t>(m) * k * n;
  if (n == 1) {
    // One output column leaves no columns to vectorize across, so run four
    // C rows per vector instead, in blocks of whole 4-row groups (only the
    // last group can fall short) whose layout never depends on the pool
    // width.
    const auto rows = static_cast<std::size_t>(m);
    const std::size_t row_step = trans_a ? 1 : static_cast<std::size_t>(k);
    ComputePool::instance().for_blocks(
        (rows + 3) / 4, work, [&](std::size_t g_lo, std::size_t g_hi) {
          std::size_t i = 4 * g_lo;
          const std::size_t hi = std::min(4 * g_hi, rows);
          for (; i + 4 <= hi; i += 4) {
            gemm_col4(a.data() + i * row_step, row_step, lda, k, alpha, pb,
                      c.data() + i, beta);
          }
          for (; i < hi; ++i) {
            gemm_strip<1>(a.data() + i * row_step, lda, k, alpha, pb, 1,
                          c.data() + i, beta);
          }
        });
    return;
  }
  par_rows(m, work, [&](int i) {
    const float* arow = trans_a ? a.data() + i : a.row(i);
    gemm_row(arow, lda, k, alpha, pb, n, c.row(i), beta);
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
  // accumulators, kStrip columns at a time. Every column still sums its rows
  // in ascending order, so the result is bit-identical for any block layout.
  float* out = g.row(0);
  ComputePool::instance().for_blocks(
      static_cast<std::size_t>(grad.cols()), grad.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j0 = lo; j0 < hi; j0 += kStrip) {
          const std::size_t w = std::min<std::size_t>(kStrip, hi - j0);
          float acc[kStrip] = {};
          for (int r = 0; r < grad.rows(); ++r) {
            const float* row = grad.row(r) + j0;
            for (std::size_t c = 0; c < w; ++c) acc[c] += row[c];
          }
          std::copy(acc, acc + w, out + j0);
        }
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
