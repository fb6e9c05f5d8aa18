// Tensor/ops tests: GEMM in all transpose modes against a naive reference
// and, bit for bit, against its in-order definition; elementwise maps, gate
// helpers, losses; the exact tanh against libm's tanhf. The vector kernels
// are called at both widths, 4 and 8 lanes, whichever the host dispatches.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/compute_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd_kernels.hpp"
#include "tensor/tanh.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using testutil::same_bits;

Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const int m = ta ? a.cols() : a.rows();
  const int k = ta ? a.rows() : a.cols();
  const int n = tb ? b.rows() : b.cols();
  Tensor c(m, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const float av = ta ? a.at(kk, i) : a.at(i, kk);
        const float bv = tb ? b.at(j, kk) : b.at(kk, j);
        s += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

/// The exact vector kernels at one width, called directly.
struct Width {
  int lanes;
  void (*gemm_rows)(const simd::GemmArgs&, std::size_t, std::size_t);
  void (*bias_grad)(const float*, int, int, std::size_t, std::size_t, float*);
  void (*tanh_n)(const float*, float*, std::size_t);
};

/// Runs body at 4 lanes, then at 8. The 8-lane half is skipped on a host
/// without AVX2; the 4-lane half runs everywhere, so the SSE2 kernels stay
/// tested on hosts that dispatch to AVX2.
template <typename F>
void at_both_widths(const F& body) {
  body(Width{4, simd::detail::gemm_rows_4, simd::detail::bias_grad_4,
             simd::detail::tanh_n_4});
  if (::testing::Test::HasFatalFailure()) return;
  if (simd::lanes() < 8) GTEST_SKIP() << "8 lanes need AVX2";
  body(Width{8, simd::detail::gemm_rows_8, simd::detail::bias_grad_8,
             simd::detail::tanh_n_8});
}

class GemmModes
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {
};

TEST_P(GemmModes, MatchesNaive) {
  const auto [m, k, n, ta, tb] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n));
  const Tensor a = ta ? Tensor::randn(k, m, rng) : Tensor::randn(m, k, rng);
  const Tensor b = tb ? Tensor::randn(n, k, rng) : Tensor::randn(k, n, rng);
  const Tensor c = ops::matmul(a, b, ta, tb);
  EXPECT_LT(ops::max_abs_diff(c, naive_matmul(a, b, ta, tb)), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmModes,
    ::testing::Combine(::testing::Values(1, 5, 33), ::testing::Values(1, 7, 32),
                       ::testing::Values(1, 6, 40), ::testing::Bool(),
                       ::testing::Bool()));

TEST(Gemm, BetaAccumulates) {
  Rng rng(1);
  const Tensor a = Tensor::randn(4, 3, rng);
  const Tensor b = Tensor::randn(3, 5, rng);
  Tensor c = Tensor::full(4, 5, 1.0f);
  ops::gemm(a, b, c, false, false, 1.0f, 1.0f);
  Tensor expect = naive_matmul(a, b, false, false);
  ops::add_inplace(expect, Tensor::full(4, 5, 1.0f));
  EXPECT_LT(ops::max_abs_diff(c, expect), 1e-4f);
}

/// The GEMM as defined before packing and register tiling, element by
/// element: C is beta-scaled first, then each element adds its k products
/// in ascending order, skipping every k where alpha * a is exactly zero.
void in_order_gemm(const Tensor& a, const Tensor& b, Tensor& c, bool ta,
                   bool tb, float alpha, float beta) {
  const int k = ta ? a.rows() : a.cols();
  if (beta == 0.0f) {
    c.fill(0.0f);
  } else if (beta != 1.0f) {
    for (float& v : c.storage()) v *= beta;
  }
  for (int i = 0; i < c.rows(); ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = alpha * (ta ? a.at(kk, i) : a.at(i, kk));
      if (av == 0.0f) continue;
      for (int j = 0; j < c.cols(); ++j) {
        c.at(i, j) += av * (tb ? b.at(j, kk) : b.at(kk, j));
      }
    }
  }
}

using GemmFn = std::function<void(const Tensor&, const Tensor&, Tensor&, bool,
                                   bool, float, float)>;

/// gemm against in_order_gemm for one shape and transpose mode, over alpha
/// in {1, 0.5} and beta in {0, 1, 0.5}.
void expect_gemm_bits(const GemmFn& gemm, bool ta, bool tb, int m, int k,
                      int n, Rng& rng) {
  Tensor a = ta ? Tensor::randn(k, m, rng) : Tensor::randn(m, k, rng);
  // Exact zeros of both signs exercise the skip; when m > 1 the second row
  // of op(A) is all zeros, so its C row keeps beta * C, and every fourth
  // row from the third on has a run of zeros through its middle third.
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      float& v = ta ? a.at(kk, i) : a.at(i, kk);
      const bool run = i % 4 == 2 && 3 * kk >= k && 3 * kk < 2 * k;
      if (i == 1 || run || (i + kk) % 3 == 0) {
        v = (kk % 2 == 0) ? 0.0f : -0.0f;
      }
    }
  }
  const Tensor b = tb ? Tensor::randn(n, k, rng) : Tensor::randn(k, n, rng);
  Tensor seed = Tensor::randn(m, n, rng);
  for (std::size_t e = 0; e < seed.size(); e += 2) seed.data()[e] = -0.0f;
  for (const float alpha : {1.0f, 0.5f}) {
    for (const float beta : {0.0f, 1.0f, 0.5f}) {
      Tensor want = seed;
      in_order_gemm(a, b, want, ta, tb, alpha, beta);
      Tensor got = seed;
      gemm(a, b, got, ta, tb, alpha, beta);
      EXPECT_TRUE(same_bits(got, want))
          << "ta=" << ta << " tb=" << tb << " m=" << m << " k=" << k
          << " n=" << n << " alpha=" << alpha << " beta=" << beta;
    }
  }
}

TEST(Gemm, BitIdenticalToInOrderReference) {
  Rng rng(41);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const int m : {1, 5, 33}) {
        for (const int k : {1, 7, 2750}) {
          // n straddles the 32-column strip width.
          for (const int n : {1, 6, 31, 32, 33, 65}) {
            expect_gemm_bits(ops::gemm, ta, tb, m, k, n, rng);
          }
        }
      }
    }
  }
}

/// The row kernel at width w on ops::gemm's operands: op(A) read in place,
/// a transposed B packed row-major first, all rows in one range.
void lane_gemm(const Width& w, const Tensor& a, const Tensor& b, Tensor& c,
               bool ta, bool tb, float alpha, float beta) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta ? a.rows() : a.cols();
  Tensor pb(k, n);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) pb.at(kk, j) = tb ? b.at(j, kk) : b.at(kk, j);
  }
  const simd::GemmArgs g{a.data(),
                         ta ? 1 : static_cast<std::size_t>(k),
                         ta ? static_cast<std::size_t>(m) : 1,
                         k,
                         alpha,
                         pb.data(),
                         n,
                         c.data(),
                         beta};
  w.gemm_rows(g, 0, static_cast<std::size_t>(m));
}

TEST(Gemm, BothWidthsBitIdenticalToInOrderReference) {
  at_both_widths([](const Width& w) {
    Rng rng(45);
    const GemmFn gemm = [&w](const Tensor& a, const Tensor& b, Tensor& c,
                             bool ta, bool tb, float alpha, float beta) {
      lane_gemm(w, a, b, c, ta, tb, alpha, beta);
    };
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        // 21 rows: n == 1 runs whole vectors of rows, a group of 4 at
        // 8 lanes, and a scalar row.
        for (const int k : {1, 7, 40}) {
          // Every strip: 32-column, 16, 8 (at either width), 4 and scalar.
          for (const int n : {1, 3, 4, 7, 8, 12, 16, 24, 31, 32, 33, 96}) {
            expect_gemm_bits(gemm, ta, tb, 21, k, n, rng);
          }
        }
      }
    }
  });
}

TEST(Gemm, MatmulBitIdenticalToInOrderReference) {
  Rng rng(42);
  const Tensor a = Tensor::randn(37, 19, rng);
  const Tensor b = Tensor::randn(19, 70, rng);
  Tensor want(37, 70);
  in_order_gemm(a, b, want, false, false, 1.0f, 0.0f);
  EXPECT_TRUE(same_bits(ops::matmul(a, b), want));
}

TEST(Gemm, ShapeMismatchThrows) {
  const Tensor a(4, 3), b(4, 5);
  Tensor c(4, 5);
  EXPECT_THROW(ops::gemm(a, b, c), Error);
}

TEST(Ops, BiasAddAndGradRoundTrip) {
  Rng rng(2);
  Tensor y = Tensor::zeros(6, 4);
  const Tensor bias = Tensor::randn(1, 4, rng);
  ops::add_bias(y, bias);
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(y.at(r, c), bias.at(0, c));
  }
  const Tensor g = ops::bias_grad(y);
  for (int c = 0; c < 4; ++c) EXPECT_NEAR(g.at(0, c), 6 * bias.at(0, c), 1e-5f);
}

/// Each column summed over its rows in ascending order from +0.
Tensor column_order_bias_grad(const Tensor& grad) {
  Tensor want(1, grad.cols());
  for (int c = 0; c < grad.cols(); ++c) {
    float acc = 0.0f;
    for (int r = 0; r < grad.rows(); ++r) acc += grad.at(r, c);
    want.at(0, c) = acc;
  }
  return want;
}

TEST(Ops, BiasGradBitIdenticalToColumnOrderReference) {
  Rng rng(43);
  // Enough work that the column blocks fan out over the pool.
  const Tensor grad = Tensor::randn(2750, 67, rng);
  EXPECT_TRUE(same_bits(ops::bias_grad(grad), column_order_bias_grad(grad)));
}

TEST(Ops, BiasGradBothWidthsBitIdenticalToColumnOrderReference) {
  at_both_widths([](const Width& w) {
    Rng rng(46);
    for (const int cols : {1, 31, 32, 33, 96}) {
      Tensor grad = Tensor::randn(37, cols, rng);
      for (std::size_t e = 0; e < grad.size(); e += 3) grad.data()[e] = -0.0f;
      const Tensor want = column_order_bias_grad(grad);
      // One range, then two whose cut leaves the second's strips unaligned.
      for (const int cut : {0, cols / 2}) {
        Tensor got(1, cols);
        w.bias_grad(grad.data(), grad.rows(), cols, 0,
                    static_cast<std::size_t>(cut), got.data());
        w.bias_grad(grad.data(), grad.rows(), cols,
                    static_cast<std::size_t>(cut),
                    static_cast<std::size_t>(cols), got.data());
        EXPECT_TRUE(same_bits(got, want))
            << w.lanes << " lanes, " << cols << " columns, cut " << cut;
      }
    }
  });
}

TEST(Ops, ActivationsAndGrads) {
  Rng rng(3);
  const Tensor x = Tensor::randn(5, 5, rng);
  const Tensor r = ops::relu(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(r.data()[i], std::max(0.0f, x.data()[i]));
  }
  const Tensor s = ops::sigmoid(x);
  const Tensor t = ops::tanh(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s.data()[i], 1.0f / (1.0f + std::exp(-x.data()[i])), 1e-6f);
    EXPECT_NEAR(t.data()[i], std::tanh(x.data()[i]), 1e-6f);
  }
  // Grad identities: d sigmoid = y(1-y), d tanh = 1-y^2.
  const Tensor ones = Tensor::full(5, 5, 1.0f);
  const Tensor ds = ops::sigmoid_grad(ones, s);
  const Tensor dt = ops::tanh_grad(ones, t);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(ds.data()[i], s.data()[i] * (1 - s.data()[i]), 1e-6f);
    EXPECT_NEAR(dt.data()[i], 1 - t.data()[i] * t.data()[i], 1e-6f);
  }
}

TEST(Ops, ConcatSplitRoundTrip) {
  Rng rng(4);
  const Tensor a = Tensor::randn(7, 3, rng);
  const Tensor b = Tensor::randn(7, 5, rng);
  const Tensor ab = ops::concat_cols(a, b);
  EXPECT_EQ(ab.cols(), 8);
  auto [a2, b2] = ops::split_cols(ab, 3);
  EXPECT_EQ(ops::max_abs_diff(a, a2), 0.0f);
  EXPECT_EQ(ops::max_abs_diff(b, b2), 0.0f);
}

TEST(Ops, SliceColsAndScatter) {
  Rng rng(5);
  const Tensor t = Tensor::randn(4, 10, rng);
  const Tensor mid = ops::slice_cols(t, 3, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) EXPECT_EQ(mid.at(r, c), t.at(r, 3 + c));
  }
  Tensor dst = Tensor::zeros(4, 10);
  ops::add_into_cols(dst, mid, 3);
  ops::add_into_cols(dst, mid, 3);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(dst.at(r, 0), 0.0f);
    EXPECT_NEAR(dst.at(r, 5), 2 * t.at(r, 5), 1e-6f);
  }
}

TEST(Ops, MseLossAndGradient) {
  Tensor pred = Tensor::full(2, 2, 3.0f);
  Tensor target = Tensor::full(2, 2, 1.0f);
  Tensor grad;
  const float loss = ops::mse_loss(pred, target, &grad);
  EXPECT_NEAR(loss, 4.0f, 1e-6f);  // (3-1)^2.
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(grad.data()[i], 2.0f * 2.0f / 4.0f, 1e-6f);
  }
}

TEST(Ops, AllFiniteDetectsNan) {
  Tensor t = Tensor::zeros(2, 2);
  EXPECT_TRUE(ops::all_finite(t));
  t.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(ops::all_finite(t));
}

TEST(Tensor, RandnDeterministicPerSeed) {
  Rng r1(5), r2(5);
  const Tensor a = Tensor::randn(8, 8, r1);
  const Tensor b = Tensor::randn(8, 8, r2);
  EXPECT_EQ(ops::max_abs_diff(a, b), 0.0f);
}

// ---------- Pooled-op determinism across thread counts ----------

/// Run op() under 1-wide and 8-wide ComputePools; every output must be
/// bit-identical (the row/element blocking never depends on the width).
void expect_bitwise_stable(const std::function<Tensor()>& op) {
  ComputePool::instance().configure(1);
  const Tensor serial = op();
  ComputePool::instance().configure(8);
  const Tensor parallel = op();
  ComputePool::instance().configure(0);  // Restore the default for peers.
  ASSERT_EQ(serial.storage().size(), parallel.storage().size());
  for (std::size_t i = 0; i < serial.storage().size(); ++i) {
    ASSERT_EQ(serial.storage()[i], parallel.storage()[i]) << "elem " << i;
  }
}

TEST(PooledDeterminism, GemmBitIdenticalAcrossThreadCounts) {
  Rng rng(31);
  // Big enough that the 8-wide run genuinely fans out (m*k*n >> threshold).
  const Tensor a = Tensor::randn(301, 64, rng);
  const Tensor b = Tensor::randn(64, 47, rng);
  expect_bitwise_stable([&] { return ops::matmul(a, b); });
  expect_bitwise_stable([&] { return ops::matmul(b, a, true, true); });
}

TEST(PooledDeterminism, GemmAccumulateBitIdenticalAcrossThreadCounts) {
  Rng rng(32);
  const Tensor a = Tensor::randn(257, 33, rng);
  const Tensor b = Tensor::randn(33, 65, rng);
  const Tensor seed = Tensor::randn(257, 65, rng);
  expect_bitwise_stable([&] {
    Tensor c = seed;
    ops::gemm(a, b, c, false, false, 0.5f, 1.0f);
    return c;
  });
}

TEST(PooledDeterminism, ElementwiseBitIdenticalAcrossThreadCounts) {
  Rng rng(33);
  const Tensor x = Tensor::randn(173, 211, rng);  // Odd sizes: uneven blocks.
  const Tensor y = Tensor::randn(173, 211, rng);
  expect_bitwise_stable([&] { return ops::mul(x, y); });
  expect_bitwise_stable([&] { return ops::sigmoid(x); });
  expect_bitwise_stable([&] { return ops::tanh(x); });
  expect_bitwise_stable([&] { return ops::relu_grad(y, x); });
  expect_bitwise_stable([&] { return ops::bias_grad(x); });
  expect_bitwise_stable([&] {
    Tensor t = x;
    ops::add_inplace(t, y, 0.25f);
    return t;
  });
}

TEST(PooledDeterminism, ConcatSliceScatterBitIdenticalAcrossThreadCounts) {
  Rng rng(34);
  const Tensor a = Tensor::randn(209, 97, rng);
  const Tensor b = Tensor::randn(209, 31, rng);
  expect_bitwise_stable([&] { return ops::concat_cols(a, b); });
  expect_bitwise_stable([&] { return ops::slice_cols(a, 13, 41); });
  expect_bitwise_stable([&] {
    Tensor dst = a;
    ops::add_into_cols(dst, b, 5);
    return dst;
  });
}

// ---------- Edge shapes through the blocked paths ----------

TEST(PooledEdgeShapes, RowsFewerThanThreadsAndSingleElement) {
  ComputePool::instance().configure(8);
  Rng rng(35);
  // 3 rows, 8 workers: fewer items than lanes.
  const Tensor a = Tensor::randn(3, 4000, rng);
  const Tensor b = Tensor::randn(4000, 2, rng);
  const Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.rows(), 3);
  for (int i = 0; i < c.rows(); ++i) {
    for (int j = 0; j < c.cols(); ++j) {
      double s = 0.0;
      for (int k = 0; k < 4000; ++k) {
        s += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      EXPECT_NEAR(c.at(i, j), s, 1e-2);
    }
  }
  // 1x1 through every elementwise path.
  const Tensor one = Tensor::full(1, 1, -2.0f);
  EXPECT_EQ(ops::relu(one).at(0, 0), 0.0f);
  EXPECT_EQ(ops::mul(one, one).at(0, 0), 4.0f);
  ComputePool::instance().configure(0);
}

TEST(PooledEdgeShapes, ZeroRowTensorsAreNoOps) {
  ComputePool::instance().configure(4);
  Tensor empty(0, 5), empty2(0, 5);
  EXPECT_EQ(ops::add(empty, empty2).size(), 0u);
  EXPECT_EQ(ops::relu(empty).size(), 0u);
  const Tensor cat = ops::concat_cols(empty, empty2);
  EXPECT_EQ(cat.rows(), 0);
  EXPECT_EQ(cat.cols(), 10);
  ComputePool::instance().configure(0);
}

// ---------- Exact tanh (tensor/tanh.hpp) against libm's tanhf ----------

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

float from_bits(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

/// Same bits, or both NaN.
bool same_tanh(float want, float got) {
  return std::isnan(want) ? std::isnan(got)
                          : float_bits(want) == float_bits(got);
}

/// Every x gets libm's tanhf bits from tanh_scalar and from the vector
/// kernel at both widths, with x in each lane position (the other lanes
/// hold x's neighbours in the list).
void expect_tanh_exact(const std::vector<float>& xs) {
  const std::size_t n = xs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const float x = xs[i];
    ASSERT_TRUE(same_tanh(std::tanh(x), ops::tanh_scalar(x)))
        << std::hex << "scalar, x bits 0x" << float_bits(x);
  }
  at_both_widths([&](const Width& w) {
    const auto lanes = static_cast<std::size_t>(w.lanes);
    float in[8], out[8];
    for (std::size_t i = 0; i < n; ++i) {
      const float want = std::tanh(xs[i]);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (std::size_t l = 0; l < lanes; ++l) {
          in[l] = xs[(i + lanes * n + l - lane) % n];
        }
        w.tanh_n(in, out, lanes);
        ASSERT_TRUE(same_tanh(want, out[lane]))
            << std::hex << w.lanes << " lanes, lane " << lane
            << ", x bits 0x" << float_bits(xs[i]);
      }
    }
  });
}

/// ±x for |x| within `ulps` of each bit pattern.
std::vector<float> around(const std::vector<std::uint32_t>& patterns,
                          int ulps) {
  std::vector<float> xs;
  for (const std::uint32_t p : patterns) {
    for (int d = -ulps; d <= ulps; ++d) {
      const float x = from_bits(p + static_cast<std::uint32_t>(d));
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  return xs;
}

/// Smallest |x| bit pattern in [lo, hi) where pred turns true (pred is
/// monotone over the range).
template <typename Pred>
std::uint32_t first_bits(std::uint32_t lo, std::uint32_t hi,
                         const Pred& pred) {
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (pred(from_bits(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(Tanh, StridedBitPatternsMatchLibm) {
  std::vector<float> xs;
  // An odd stride walks every exponent with varied mantissas: ~1M inputs.
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4093) {
    xs.push_back(from_bits(static_cast<std::uint32_t>(u)));
  }
  expect_tanh_exact(xs);
}

TEST(Tanh, BranchThresholdsMatchLibm) {
  // tanh's own thresholds on |x|: 2^-55, 1 and 22.
  std::vector<std::uint32_t> edges = {0x24000000, 0x3f800000, 0x41b00000};
  // expm1's, on its argument 2|x| (one exponent step above |x|): 2^-25,
  // 0.5 ln2 and 1.5 ln2.
  for (const std::uint32_t arg : {0x33000000u, 0x3eb17218u, 0x3f851592u}) {
    edges.push_back(arg - 0x00800000u);
  }
  // Where expm1's k = trunc(arg / ln2 ± 0.5), computed as fdlibm does,
  // reaches -3, 23 and 57: the edges between its scaling forms.
  const auto k_of = [](float arg) {
    return static_cast<int>(1.4426950216f * arg + (arg < 0 ? -0.5f : 0.5f));
  };
  edges.push_back(first_bits(0x3f000000, 0x3f800000, [&](float ax) {
    return k_of(-2.0f * ax) <= -3;
  }));
  for (const int k : {23, 57}) {
    edges.push_back(first_bits(0x3f800000, 0x41b00000, [&](float ax) {
      return k_of(2.0f * ax) >= k;
    }));
  }
  expect_tanh_exact(around(edges, 2));
}

TEST(Tanh, SpecialValuesMatchLibm) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0f,
                           -0.0f,
                           inf,
                           -inf,
                           std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::signaling_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::max(),
                           std::numeric_limits<float>::lowest(),
                           std::numeric_limits<float>::min(),
                           -std::numeric_limits<float>::min()};
  for (const std::uint32_t sub : {0x00000001u, 0x00400000u, 0x007fffffu}) {
    xs.push_back(from_bits(sub));
    xs.push_back(-from_bits(sub));
  }
  expect_tanh_exact(xs);
  EXPECT_EQ(ops::tanh_scalar(inf), 1.0f);
  EXPECT_EQ(ops::tanh_scalar(-inf), -1.0f);
  EXPECT_EQ(float_bits(ops::tanh_scalar(-0.0f)), float_bits(-0.0f));
}

TEST(Tanh, MixedBranchVectorsInEveryLanePosition) {
  // One input per branch: tiny, expm1-tiny, k = 0, k = -1, k = -2, k = -3,
  // k < 23, 23 <= k <= 56, k > 56, saturated, non-finite; both signs.
  std::vector<float> reps;
  for (const float x : {1e-18f, 1e-9f, 0.1f, 0.4f, 0.7f, 0.95f, 1.5f, 10.0f,
                        20.0f, 25.0f, std::numeric_limits<float>::infinity()}) {
    reps.push_back(x);
    reps.push_back(-x);
  }
  reps.push_back(0.0f);
  reps.push_back(std::numeric_limits<float>::quiet_NaN());
  // Every 4-lane combination; at 8 lanes, each one beside its mirror
  // image, so every branch meets every other in all 8 lane positions.
  const std::size_t r = reps.size();
  const std::size_t combos = r * r * r * r;
  at_both_widths([&](const Width& w) {
    float in[8], out[8];
    for (std::size_t code = 0; code < combos; ++code) {
      for (int half = 0; half * 4 < w.lanes; ++half) {
        std::size_t c = half == 0 ? code : combos - 1 - code;
        for (int l = 0; l < 4; ++l) {
          in[4 * half + l] = reps[c % r];
          c /= r;
        }
      }
      w.tanh_n(in, out, static_cast<std::size_t>(w.lanes));
      for (int l = 0; l < w.lanes; ++l) {
        ASSERT_TRUE(same_tanh(std::tanh(in[l]), out[l]))
            << w.lanes << " lanes, lane " << l << " x " << in[l]
            << " in vector " << code;
      }
    }
  });
}

TEST(Tanh, EveryTailLengthAndTheTensorOpMatchLibm) {
  Rng rng(44);
  const Tensor x = Tensor::randn(1, 19, rng, 3.0f);
  // Two whole vectors and every tail after them, at either width.
  const auto expect_every_length = [&](const auto& tanh_n, const char* what) {
    for (std::size_t n = 0; n <= 19; ++n) {
      std::vector<float> out(n), inplace(x.data(), x.data() + n);
      tanh_n(x.data(), out.data(), n);
      tanh_n(inplace.data(), inplace.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const float want = std::tanh(x.data()[i]);
        EXPECT_EQ(float_bits(out[i]), float_bits(want))
            << what << n << " " << i;
        EXPECT_EQ(float_bits(inplace[i]), float_bits(want))
            << what << n << " " << i;
      }
    }
  };
  expect_every_length(ops::tanh_n, "dispatched, n ");
  // Odd sizes put tails at the end of uneven element blocks.
  const Tensor big = Tensor::randn(173, 211, rng, 4.0f);
  const Tensor y = ops::tanh(big);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    mismatches +=
        float_bits(y.data()[i]) != float_bits(std::tanh(big.data()[i]));
  }
  EXPECT_EQ(mismatches, 0u);
  at_both_widths([&](const Width& w) {
    expect_every_length(w.tanh_n, w.lanes == 4 ? "4 lanes, n " : "8 lanes, n ");
  });
}

// All 2^32 inputs, on the ComputePool: about 45 s on 4 threads, so it runs
// by name (CI: --gtest_also_run_disabled_tests), not with the suite. Each
// input goes through the scalar port and the 4-lane kernel, and through the
// 8-lane kernel where the host has AVX2.
TEST(Tanh, DISABLED_ExhaustiveMatchesLibmAndScalarPort) {
  constexpr std::uint64_t kInputs = std::uint64_t{1} << 32;
  const bool eight = simd::lanes() == 8;
  std::atomic<std::uint64_t> vs_libm{0}, vs_scalar4{0}, vs_scalar8{0};
  std::atomic<std::uint32_t> first_bad{0};
  ComputePool::instance().for_blocks(
      kInputs / 8, kInputs, [&](std::size_t lo, std::size_t hi) {
        std::uint64_t libm = 0, scalar4 = 0, scalar8 = 0;
        for (std::uint64_t g = lo; g < hi; ++g) {
          float in[8], out4[8], out8[8];
          for (std::uint32_t l = 0; l < 8; ++l) {
            in[l] = from_bits(static_cast<std::uint32_t>(8 * g + l));
          }
          simd::detail::tanh_n_4(in, out4, 8);
          if (eight) simd::detail::tanh_n_8(in, out8, 8);
          for (int l = 0; l < 8; ++l) {
            const float s = ops::tanh_scalar(in[l]);
            const float want = std::tanh(in[l]);
            const bool bad_libm = !same_tanh(want, s) ||
                                  !same_tanh(want, out4[l]) ||
                                  (eight && !same_tanh(want, out8[l]));
            const bool bad4 = !same_tanh(s, out4[l]);
            const bool bad8 = eight && !same_tanh(s, out8[l]);
            if (bad_libm || bad4 || bad8) first_bad = float_bits(in[l]);
            libm += bad_libm;
            scalar4 += bad4;
            scalar8 += bad8;
          }
        }
        vs_libm += libm;
        vs_scalar4 += scalar4;
        vs_scalar8 += scalar8;
      });
  std::printf(
      "tanh exhaustive: %llu inputs, %llu mismatches against libm tanhf, "
      "%llu between 4 lanes and tanh_scalar, %s between 8 lanes and "
      "tanh_scalar\n",
      static_cast<unsigned long long>(kInputs),
      static_cast<unsigned long long>(vs_libm.load()),
      static_cast<unsigned long long>(vs_scalar4.load()),
      eight ? std::to_string(vs_scalar8.load()).c_str()
            : "not run (no AVX2)");
  EXPECT_EQ(vs_scalar4.load(), 0u) << std::hex << "e.g. 0x" << first_bad;
  EXPECT_EQ(vs_scalar8.load(), 0u) << std::hex << "e.g. 0x" << first_bad;
  EXPECT_EQ(vs_libm.load(), 0u) << std::hex << "e.g. 0x" << first_bad;
  if (!eight) GTEST_SKIP() << "8 lanes need AVX2";
}

}  // namespace
}  // namespace pipad
