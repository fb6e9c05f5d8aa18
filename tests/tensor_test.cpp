// Tensor/ops tests: GEMM in all transpose modes against a naive reference
// and, bit for bit, against its in-order definition; elementwise maps, gate
// helpers, losses; the exact tanh against libm's tanhf.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/compute_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
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

/// Every x gets libm's tanhf bits from tanh_scalar and from tanh4, the
/// latter with x in each lane position (the other lanes hold x's
/// neighbours in the list).
void expect_tanh_exact(const std::vector<float>& xs) {
  const std::size_t n = xs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const float x = xs[i];
    const float want = std::tanh(x);
    ASSERT_TRUE(same_tanh(want, ops::tanh_scalar(x)))
        << std::hex << "scalar, x bits 0x" << float_bits(x);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      float in[4], out[4];
      for (std::size_t l = 0; l < 4; ++l) {
        in[l] = xs[(i + 4 * n + l - lane) % n];
      }
      simd::store4(out, ops::tanh4(simd::load4(in)));
      ASSERT_TRUE(same_tanh(want, out[lane]))
          << std::hex << "lane " << lane << ", x bits 0x" << float_bits(x);
    }
  }
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
  const std::size_t r = reps.size();
  float in[4], out[4];
  for (std::size_t code = 0; code < r * r * r * r; ++code) {
    std::size_t c = code;
    for (float& lane : in) {
      lane = reps[c % r];
      c /= r;
    }
    simd::store4(out, ops::tanh4(simd::load4(in)));
    for (int l = 0; l < 4; ++l) {
      ASSERT_TRUE(same_tanh(std::tanh(in[l]), out[l]))
          << "lane " << l << " x " << in[l] << " in vector " << code;
    }
  }
}

TEST(Tanh, EveryTailLengthAndTheTensorOpMatchLibm) {
  Rng rng(44);
  const Tensor x = Tensor::randn(1, 11, rng, 3.0f);
  for (std::size_t n = 0; n <= 11; ++n) {
    std::vector<float> out(n), inplace(x.data(), x.data() + n);
    ops::tanh_n(x.data(), out.data(), n);
    ops::tanh_n(inplace.data(), inplace.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float want = std::tanh(x.data()[i]);
      EXPECT_EQ(float_bits(out[i]), float_bits(want)) << n << " " << i;
      EXPECT_EQ(float_bits(inplace[i]), float_bits(want)) << n << " " << i;
    }
  }
  // Odd sizes put tails at the end of uneven element blocks.
  const Tensor big = Tensor::randn(173, 211, rng, 4.0f);
  const Tensor y = ops::tanh(big);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    mismatches +=
        float_bits(y.data()[i]) != float_bits(std::tanh(big.data()[i]));
  }
  EXPECT_EQ(mismatches, 0u);
}

// All 2^32 inputs, on the ComputePool: about 45 s on 4 threads, so it runs
// by name (CI: --gtest_also_run_disabled_tests), not with the suite.
TEST(Tanh, DISABLED_ExhaustiveMatchesLibmAndScalarPort) {
  constexpr std::uint64_t kInputs = std::uint64_t{1} << 32;
  std::atomic<std::uint64_t> vs_libm{0}, vs_scalar{0};
  std::atomic<std::uint32_t> first_bad{0};
  ComputePool::instance().for_blocks(
      kInputs / 4, kInputs, [&](std::size_t lo, std::size_t hi) {
        std::uint64_t libm = 0, scalar = 0;
        for (std::uint64_t g = lo; g < hi; ++g) {
          float in[4], out[4];
          for (std::uint32_t l = 0; l < 4; ++l) {
            in[l] = from_bits(static_cast<std::uint32_t>(4 * g + l));
          }
          simd::store4(out, ops::tanh4(simd::load4(in)));
          for (int l = 0; l < 4; ++l) {
            const float s = ops::tanh_scalar(in[l]);
            const bool bad_libm = !same_tanh(std::tanh(in[l]), out[l]) ||
                                  !same_tanh(std::tanh(in[l]), s);
            const bool bad_scalar = !same_tanh(s, out[l]);
            if (bad_libm || bad_scalar) first_bad = float_bits(in[l]);
            libm += bad_libm;
            scalar += bad_scalar;
          }
        }
        vs_libm += libm;
        vs_scalar += scalar;
      });
  std::printf(
      "tanh exhaustive: %llu inputs, %llu mismatches against libm tanhf, "
      "%llu between tanh4 and tanh_scalar\n",
      static_cast<unsigned long long>(kInputs),
      static_cast<unsigned long long>(vs_libm.load()),
      static_cast<unsigned long long>(vs_scalar.load()));
  EXPECT_EQ(vs_scalar.load(), 0u) << std::hex << "e.g. 0x" << first_bad;
  EXPECT_EQ(vs_libm.load(), 0u) << std::hex << "e.g. 0x" << first_bad;
}

}  // namespace
}  // namespace pipad
