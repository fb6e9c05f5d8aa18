// Tensor/ops tests: GEMM in all transpose modes against a naive reference
// and, bit for bit, against its in-order definition; elementwise maps, gate
// helpers, losses.
#include <gtest/gtest.h>

#include <tuple>

#include "common/compute_pool.hpp"
#include "tensor/ops.hpp"
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

/// ops::gemm against in_order_gemm for one shape and transpose mode, over
/// alpha in {1, 0.5} and beta in {0, 1, 0.5}.
void expect_gemm_bits(bool ta, bool tb, int m, int k, int n, Rng& rng) {
  Tensor a = ta ? Tensor::randn(k, m, rng) : Tensor::randn(m, k, rng);
  // Exact zeros of both signs exercise the skip; when m > 1 the second row
  // of op(A) is all zeros, so its C row keeps beta * C.
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      float& v = ta ? a.at(kk, i) : a.at(i, kk);
      if (i == 1 || (i + kk) % 3 == 0) v = (kk % 2 == 0) ? 0.0f : -0.0f;
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
      ops::gemm(a, b, got, ta, tb, alpha, beta);
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
            expect_gemm_bits(ta, tb, m, k, n, rng);
          }
        }
      }
    }
  }
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

TEST(Ops, BiasGradBitIdenticalToColumnOrderReference) {
  Rng rng(43);
  // Enough work that the column blocks fan out over the pool.
  const Tensor grad = Tensor::randn(2750, 67, rng);
  Tensor want(1, grad.cols());
  for (int c = 0; c < grad.cols(); ++c) {
    float acc = 0.0f;
    for (int r = 0; r < grad.rows(); ++r) acc += grad.at(r, c);
    want.at(0, c) = acc;
  }
  EXPECT_TRUE(same_bits(ops::bias_grad(grad), want));
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

}  // namespace
}  // namespace pipad
