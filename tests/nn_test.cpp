// NN layer tests: numerical gradient checks for every module's manual
// backward, the fused GRU/LSTM gate passes against their op-by-op chains,
// plus optimizer behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "nn/gru.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "nn/optim.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

/// Central-difference gradient of scalar_fn wrt one element of t.
float numeric_grad(Tensor& t, int r, int c,
                   const std::function<float()>& scalar_fn,
                   float eps = 1e-3f) {
  const float orig = t.at(r, c);
  t.at(r, c) = orig + eps;
  const float hi = scalar_fn();
  t.at(r, c) = orig - eps;
  const float lo = scalar_fn();
  t.at(r, c) = orig;
  return (hi - lo) / (2.0f * eps);
}

/// Sum-of-outputs loss makes d(loss)/d(out) all-ones.
Tensor ones_like(const Tensor& t) {
  return Tensor::full(t.rows(), t.cols(), 1.0f);
}

TEST(Linear, ForwardMatchesManualMath) {
  Rng rng(1);
  nn::Linear lin(3, 2, rng);
  const Tensor x = Tensor::randn(4, 3, rng);
  const Tensor y = lin.forward(x, nullptr, "t");
  Tensor expect = ops::matmul(x, lin.weight().value);
  ops::add_bias(expect, lin.bias().value);
  EXPECT_LT(ops::max_abs_diff(y, expect), 1e-6f);
}

// Records every kernel by name and stats, in order.
class KernelLog final : public kernels::KernelRecorder {
 public:
  void record(const std::string& name,
              const gpusim::KernelStats& s) override {
    log.push_back(name + " " + std::to_string(s.flops) + " " +
                  std::to_string(s.global_transactions) + " " +
                  std::to_string(s.total_warps));
  }
  std::vector<std::string> log;
};

TEST(Linear, LeafInputSkipsDxButNotItsGradsOrKernels) {
  Rng rng(3);
  nn::Linear leaf(19, 6, rng);
  testutil::randomize_biases(leaf.params(), rng);
  nn::Linear full = leaf;
  const Tensor x = testutil::randn_with_zeros(70, 19, rng);
  const Tensor dy = testutil::randn_with_zeros(70, 6, rng);
  KernelLog leaf_log, full_log;
  EXPECT_TRUE(
      leaf.backward(x, dy, &leaf_log, "t", /*leaf_input=*/true).empty());
  EXPECT_EQ(full.backward(x, dy, &full_log, "t").rows(), 70);
  EXPECT_TRUE(testutil::same_bits(leaf.weight().grad, full.weight().grad));
  EXPECT_TRUE(testutil::same_bits(leaf.bias().grad, full.bias().grad));
  EXPECT_EQ(leaf_log.log, full_log.log);
  EXPECT_EQ(full_log.log.size(), 2u);  // .dw and .dx
}

TEST(Linear, GradientCheck) {
  Rng rng(2);
  nn::Linear lin(3, 2, rng);
  Tensor x = Tensor::randn(5, 3, rng);
  auto loss = [&] { return ops::sum(lin.forward(x, nullptr, "t")); };

  const Tensor y = lin.forward(x, nullptr, "t");
  nn::zero_grads(lin.params());
  const Tensor dx = lin.backward(x, ones_like(y), nullptr, "t");

  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_NEAR(lin.weight().grad.at(r, c),
                  numeric_grad(lin.weight().value, r, c, loss), 2e-2f);
      EXPECT_NEAR(dx.at(r, c), numeric_grad(x, r, c, loss), 2e-2f);
    }
  }
  EXPECT_NEAR(lin.bias().grad.at(0, 0),
              numeric_grad(lin.bias().value, 0, 0, loss), 2e-2f);
}

TEST(LstmCell, GradientCheckAllPaths) {
  Rng rng(3);
  nn::LSTMCell cell(3, 4, rng);
  Tensor x = Tensor::randn(2, 3, rng);
  Tensor h0 = Tensor::randn(2, 4, rng, 0.5f);
  Tensor c0 = Tensor::randn(2, 4, rng, 0.5f);
  auto loss = [&] {
    nn::LSTMCell::Cache cache;
    auto [h, c] = cell.forward(x, h0, c0, cache, nullptr, "t");
    return ops::sum(h) + 0.5f * ops::sum(c);
  };

  nn::LSTMCell::Cache cache;
  auto [h, c] = cell.forward(x, h0, c0, cache, nullptr, "t");
  nn::zero_grads(cell.params());
  auto [dx, dh0, dc0] = cell.backward(
      cache, ones_like(h), Tensor::full(2, 4, 0.5f), nullptr, "t");

  // Inputs.
  for (int r = 0; r < 2; ++r) {
    for (int cc = 0; cc < 3; ++cc) {
      EXPECT_NEAR(dx.at(r, cc), numeric_grad(x, r, cc, loss), 2e-2f)
          << "dx(" << r << "," << cc << ")";
    }
    for (int cc = 0; cc < 4; ++cc) {
      EXPECT_NEAR(dh0.at(r, cc), numeric_grad(h0, r, cc, loss), 2e-2f);
      EXPECT_NEAR(dc0.at(r, cc), numeric_grad(c0, r, cc, loss), 2e-2f);
    }
  }
  // A sample of weight entries.
  auto& w = cell.weight();
  for (int r = 0; r < 3; ++r) {
    for (int cc = 0; cc < 4; ++cc) {
      EXPECT_NEAR(w.grad.at(r, cc), numeric_grad(w.value, r, cc, loss),
                  3e-2f)
          << "dW(" << r << "," << cc << ")";
    }
  }
}

TEST(LstmSequence, BpttGradientCheck) {
  Rng rng(4);
  nn::LSTMCell cell(2, 3, rng);
  std::vector<Tensor> xs;
  for (int t = 0; t < 4; ++t) xs.push_back(Tensor::randn(2, 2, rng));
  std::vector<const Tensor*> xp;
  for (auto& x : xs) xp.push_back(&x);

  auto loss = [&] {
    nn::LSTMSequence seq(&cell);
    auto hs = seq.forward(xp, nullptr, "t");
    float s = 0.0f;
    for (auto& h : hs) s += ops::sum(h);
    return s;
  };

  nn::LSTMSequence seq(&cell);
  auto hs = seq.forward(xp, nullptr, "t");
  nn::zero_grads(cell.params());
  std::vector<Tensor> d_hs;
  for (auto& h : hs) d_hs.push_back(ones_like(h));
  auto dxs = seq.backward(d_hs, nullptr, "t");

  for (int t = 0; t < 4; ++t) {
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        EXPECT_NEAR(dxs[t].at(r, c), numeric_grad(xs[t], r, c, loss), 3e-2f)
            << "t=" << t;
      }
    }
  }
  auto& w = cell.weight();
  EXPECT_NEAR(w.grad.at(0, 0), numeric_grad(w.value, 0, 0, loss), 5e-2f);
  EXPECT_NEAR(w.grad.at(4, 7), numeric_grad(w.value, 4, 7, loss), 5e-2f);
}

TEST(GruCell, GradientCheckAllPaths) {
  Rng rng(5);
  nn::GRUCell cell(3, 4, rng);
  Tensor x = Tensor::randn(2, 3, rng);
  Tensor h0 = Tensor::randn(2, 4, rng, 0.5f);
  auto loss = [&] {
    nn::GRUCell::Cache cache;
    return ops::sum(cell.forward(x, h0, cache, nullptr, "t"));
  };

  nn::GRUCell::Cache cache;
  Tensor h = cell.forward(x, h0, cache, nullptr, "t");
  nn::zero_grads(cell.params());
  auto [dx, dh0] = cell.backward(cache, ones_like(h), nullptr, "t");

  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(dx.at(r, c), numeric_grad(x, r, c, loss), 2e-2f);
    }
    for (int c = 0; c < 4; ++c) {
      EXPECT_NEAR(dh0.at(r, c), numeric_grad(h0, r, c, loss), 2e-2f);
    }
  }
  auto params = cell.params();
  for (auto* p : params) {
    EXPECT_NEAR(p->grad.at(0, 0), numeric_grad(p->value, 0, 0, loss), 3e-2f);
  }
}

TEST(GruCell, HiddenStateStaysBounded) {
  // GRU output is a convex combination of tanh output and previous state;
  // repeated application from a bounded start must remain bounded.
  Rng rng(6);
  nn::GRUCell cell(2, 3, rng);
  Tensor h = Tensor::zeros(4, 3);
  const Tensor x = Tensor::randn(4, 2, rng);
  for (int i = 0; i < 50; ++i) {
    nn::GRUCell::Cache cache;
    h = cell.forward(x, h, cache, nullptr, "t");
  }
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_LE(std::abs(h.data()[i]), 1.0f + 1e-5f);
  }
}

// ---------- Fused gate passes vs the op-by-op chains they replaced ----------
//
// gru_chain() and lstm_chain() are each cell's forward and backward written
// as separate tensor ops, in the order the cells used before their gate
// math was fused; the fused cells must reproduce them bit for bit.

using testutil::randomize_biases;
using testutil::randn_with_zeros;
using testutil::same_bits;

struct GruChain {
  Tensor z, r, xrh, n, h, dx, dh_prev;
};

GruChain gru_chain(nn::GRUCell& cell, const Tensor& x, const Tensor& h_prev,
                   const Tensor& dh) {
  const auto p = cell.params();  // wz, wr, wn, bz, br, bn.
  GruChain o;
  const Tensor xh = ops::concat_cols(x, h_prev);
  Tensor az = ops::matmul(xh, p[0]->value);
  ops::add_bias(az, p[3]->value);
  Tensor ar = ops::matmul(xh, p[1]->value);
  ops::add_bias(ar, p[4]->value);
  o.z = ops::sigmoid(az);
  o.r = ops::sigmoid(ar);
  const Tensor rh = ops::mul(o.r, h_prev);
  o.xrh = ops::concat_cols(x, rh);
  Tensor an = ops::matmul(o.xrh, p[2]->value);
  ops::add_bias(an, p[5]->value);
  o.n = ops::tanh(an);
  o.h = Tensor(x.rows(), cell.hidden_dim());
  for (std::size_t i = 0; i < o.h.size(); ++i) {
    const float z = o.z.data()[i];
    o.h.data()[i] = (1.0f - z) * o.n.data()[i] + z * h_prev.data()[i];
  }

  Tensor dz = ops::mul(dh, ops::sub(h_prev, o.n));
  Tensor dn =
      ops::mul(dh, ops::sub(Tensor::full(dh.rows(), dh.cols(), 1.0f), o.z));
  o.dh_prev = ops::mul(dh, o.z);
  Tensor dan = ops::tanh_grad(dn, o.n);
  ops::gemm(o.xrh, dan, p[2]->grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(p[5]->grad, ops::bias_grad(dan));
  Tensor dxrh = ops::matmul(dan, p[2]->value, false, true);
  auto [dx_n, drh] = ops::split_cols(dxrh, cell.input_dim());
  Tensor dr = ops::mul(drh, h_prev);
  ops::add_inplace(o.dh_prev, ops::mul(drh, o.r));
  Tensor daz = ops::sigmoid_grad(dz, o.z);
  Tensor dar = ops::sigmoid_grad(dr, o.r);
  ops::gemm(xh, daz, p[0]->grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(p[3]->grad, ops::bias_grad(daz));
  ops::gemm(xh, dar, p[1]->grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(p[4]->grad, ops::bias_grad(dar));
  Tensor dxh_z = ops::matmul(daz, p[0]->value, false, true);
  Tensor dxh_r = ops::matmul(dar, p[1]->value, false, true);
  auto [dx_z, dh_z] = ops::split_cols(dxh_z, cell.input_dim());
  auto [dx_r, dh_r] = ops::split_cols(dxh_r, cell.input_dim());
  o.dx = dx_n;
  ops::add_inplace(o.dx, dx_z);
  ops::add_inplace(o.dx, dx_r);
  ops::add_inplace(o.dh_prev, dh_z);
  ops::add_inplace(o.dh_prev, dh_r);
  return o;
}

/// Fused forward + backward of a seeded cell: h, dx, dh_prev, then grads.
std::vector<Tensor> gru_fused(int rows, int in, int hid, std::uint64_t seed) {
  Rng rng(seed);
  nn::GRUCell cell(in, hid, rng);
  randomize_biases(cell.params(), rng);
  const Tensor x = randn_with_zeros(rows, in, rng);
  const Tensor h0 = randn_with_zeros(rows, hid, rng);
  const Tensor dh = randn_with_zeros(rows, hid, rng);
  nn::GRUCell::Cache cache;
  std::vector<Tensor> out{cell.forward(x, h0, cache, nullptr, "t")};
  auto [dx, dh0] = cell.backward(cache, dh, nullptr, "t");
  out.push_back(dx);
  out.push_back(dh0);
  for (auto* p : cell.params()) out.push_back(p->grad);
  return out;
}

void expect_gru_matches_chain(int rows, int in, int hid, std::uint64_t seed) {
  Rng rng(seed);
  nn::GRUCell cell(in, hid, rng);
  randomize_biases(cell.params(), rng);
  nn::GRUCell ref = cell;
  const Tensor x = randn_with_zeros(rows, in, rng);
  const Tensor h0 = randn_with_zeros(rows, hid, rng);
  const Tensor dh = randn_with_zeros(rows, hid, rng);

  nn::GRUCell::Cache cache;
  const Tensor h = cell.forward(x, h0, cache, nullptr, "t");
  auto [dx, dh0] = cell.backward(cache, dh, nullptr, "t");
  const GruChain want = gru_chain(ref, x, h0, dh);

  EXPECT_TRUE(same_bits(cache.z, want.z));
  EXPECT_TRUE(same_bits(cache.r, want.r));
  EXPECT_TRUE(same_bits(cache.xrh, want.xrh));
  EXPECT_TRUE(same_bits(cache.n, want.n));
  EXPECT_TRUE(same_bits(h, want.h));
  EXPECT_TRUE(same_bits(dx, want.dx));
  EXPECT_TRUE(same_bits(dh0, want.dh_prev));
  const auto got_p = cell.params();
  const auto want_p = ref.params();
  for (std::size_t i = 0; i < got_p.size(); ++i) {
    EXPECT_TRUE(same_bits(got_p[i]->grad, want_p[i]->grad)) << "param " << i;
  }
}

TEST(GruCell, FusedPassesMatchOpChainBitForBit) {
  expect_gru_matches_chain(67, 7, 33, 21);  // Strip tails everywhere.
  expect_gru_matches_chain(300, 16, 32, 22);
}

/// Elements where got[i] is not libm's tanhf(pre[i]), bit for bit.
std::size_t tanh_mismatches(const Tensor& pre, const Tensor& got) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < pre.size(); ++i) {
    const float want = std::tanh(pre.data()[i]);
    n += std::memcmp(&want, got.data() + i, sizeof want) != 0;
  }
  return n;
}

// The cells' tanh equals libm's tanhf in every column, including the scalar
// tail of a hidden size that is not a multiple of 4.
TEST(GruCell, CandidateTanhMatchesLibmWithHiddenSizeNotAMultipleOf4) {
  Rng rng(24);
  nn::GRUCell cell(5, 7, rng);
  randomize_biases(cell.params(), rng);
  const Tensor x = Tensor::randn(67, 5, rng, 4.0f);  // Reach |x| > 1 too.
  const Tensor h0 = Tensor::randn(67, 7, rng);
  nn::GRUCell::Cache cache;
  cell.forward(x, h0, cache, nullptr, "t");
  const auto p = cell.params();  // wz, wr, wn, bz, br, bn.
  Tensor an = ops::matmul(cache.xrh, p[2]->value);
  ops::add_bias(an, p[5]->value);
  EXPECT_EQ(tanh_mismatches(an, cache.n), 0u);
}

TEST(GruCell, FusedPassesBitIdenticalAcrossThreadCounts) {
  testutil::expect_same_bits_across_threads(
      [] { return gru_fused(700, 16, 32, 23); });
}

struct LstmChain {
  Tensor i, f, g, o, c, tanh_c, h, dx, dh_prev, dc_prev;
};

LstmChain lstm_chain(nn::LSTMCell& cell, const Tensor& x, const Tensor& h_prev,
                     const Tensor& c_prev, const Tensor& dh, const Tensor& dc) {
  const int hid = cell.hidden_dim();
  nn::Parameter& w = *cell.params()[0];
  nn::Parameter& b = *cell.params()[1];
  LstmChain o;
  const Tensor xh = ops::concat_cols(x, h_prev);
  Tensor gates = ops::matmul(xh, w.value);
  ops::add_bias(gates, b.value);
  o.i = ops::sigmoid(ops::slice_cols(gates, 0, hid));
  o.f = ops::sigmoid(ops::slice_cols(gates, hid, hid));
  o.g = ops::tanh(ops::slice_cols(gates, 2 * hid, hid));
  o.o = ops::sigmoid(ops::slice_cols(gates, 3 * hid, hid));
  o.c = ops::add(ops::mul(o.f, c_prev), ops::mul(o.i, o.g));
  o.tanh_c = ops::tanh(o.c);
  o.h = ops::mul(o.o, o.tanh_c);

  Tensor dtanh_c = ops::mul(dh, o.o);
  Tensor dc_total = ops::tanh_grad(dtanh_c, o.tanh_c);
  if (!dc.empty()) ops::add_inplace(dc_total, dc);
  Tensor d_o = ops::mul(dh, o.tanh_c);
  Tensor d_f = ops::mul(dc_total, c_prev);
  o.dc_prev = ops::mul(dc_total, o.f);
  Tensor d_i = ops::mul(dc_total, o.g);
  Tensor d_g = ops::mul(dc_total, o.i);
  Tensor da(dh.rows(), 4 * hid);
  ops::add_into_cols(da, ops::sigmoid_grad(d_i, o.i), 0);
  ops::add_into_cols(da, ops::sigmoid_grad(d_f, o.f), hid);
  ops::add_into_cols(da, ops::tanh_grad(d_g, o.g), 2 * hid);
  ops::add_into_cols(da, ops::sigmoid_grad(d_o, o.o), 3 * hid);
  ops::gemm(xh, da, w.grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(b.grad, ops::bias_grad(da));
  Tensor dxh = ops::matmul(da, w.value, false, true);
  std::tie(o.dx, o.dh_prev) = ops::split_cols(dxh, cell.input_dim());
  return o;
}

/// Fused forward + backward of a seeded cell: h, c, dx, dh_prev, dc_prev,
/// then grads.
std::vector<Tensor> lstm_fused(int rows, int in, int hid, std::uint64_t seed) {
  Rng rng(seed);
  nn::LSTMCell cell(in, hid, rng);
  randomize_biases(cell.params(), rng);
  const Tensor x = randn_with_zeros(rows, in, rng);
  const Tensor h0 = randn_with_zeros(rows, hid, rng);
  const Tensor c0 = randn_with_zeros(rows, hid, rng);
  const Tensor dh = randn_with_zeros(rows, hid, rng);
  const Tensor dc = randn_with_zeros(rows, hid, rng);
  nn::LSTMCell::Cache cache;
  auto [h, c] = cell.forward(x, h0, c0, cache, nullptr, "t");
  auto [dx, dh0, dc0] = cell.backward(cache, dh, dc, nullptr, "t");
  std::vector<Tensor> out{h, c, dx, dh0, dc0};
  for (auto* p : cell.params()) out.push_back(p->grad);
  return out;
}

void expect_lstm_matches_chain(int rows, int in, int hid, bool with_dc,
                               std::uint64_t seed) {
  Rng rng(seed);
  nn::LSTMCell cell(in, hid, rng);
  randomize_biases(cell.params(), rng);
  nn::LSTMCell ref = cell;
  const Tensor x = randn_with_zeros(rows, in, rng);
  const Tensor h0 = randn_with_zeros(rows, hid, rng);
  const Tensor c0 = randn_with_zeros(rows, hid, rng);
  const Tensor dh = randn_with_zeros(rows, hid, rng);
  const Tensor dc = with_dc ? randn_with_zeros(rows, hid, rng) : Tensor();

  nn::LSTMCell::Cache cache;
  auto [h, c] = cell.forward(x, h0, c0, cache, nullptr, "t");
  auto [dx, dh0, dc0] = cell.backward(cache, dh, dc, nullptr, "t");
  const LstmChain want = lstm_chain(ref, x, h0, c0, dh, dc);

  EXPECT_TRUE(same_bits(cache.i, want.i));
  EXPECT_TRUE(same_bits(cache.f, want.f));
  EXPECT_TRUE(same_bits(cache.g, want.g));
  EXPECT_TRUE(same_bits(cache.o, want.o));
  EXPECT_TRUE(same_bits(cache.tanh_c, want.tanh_c));
  EXPECT_TRUE(same_bits(c, want.c));
  EXPECT_TRUE(same_bits(h, want.h));
  EXPECT_TRUE(same_bits(dx, want.dx));
  EXPECT_TRUE(same_bits(dh0, want.dh_prev));
  EXPECT_TRUE(same_bits(dc0, want.dc_prev));
  EXPECT_TRUE(same_bits(cell.params()[0]->grad, ref.params()[0]->grad));
  EXPECT_TRUE(same_bits(cell.params()[1]->grad, ref.params()[1]->grad));
}

TEST(LstmCell, FusedPassesMatchOpChainBitForBit) {
  expect_lstm_matches_chain(67, 5, 9, true, 31);  // 4*hid = 36: a strip tail.
  expect_lstm_matches_chain(67, 5, 9, false, 32);  // No upstream dc.
  expect_lstm_matches_chain(300, 16, 32, true, 33);
}

TEST(LstmCell, TanhMatchesLibmWithHiddenSizeNotAMultipleOf4) {
  Rng rng(35);
  nn::LSTMCell cell(5, 7, rng);
  randomize_biases(cell.params(), rng);
  const Tensor x = Tensor::randn(67, 5, rng, 4.0f);
  const Tensor h0 = Tensor::randn(67, 7, rng);
  const Tensor c0 = Tensor::randn(67, 7, rng, 2.0f);
  nn::LSTMCell::Cache cache;
  cell.forward(x, h0, c0, cache, nullptr, "t");
  Tensor gates = ops::matmul(cache.xh, cell.params()[0]->value);
  ops::add_bias(gates, cell.params()[1]->value);
  EXPECT_EQ(tanh_mismatches(ops::slice_cols(gates, 14, 7), cache.g), 0u);
  EXPECT_EQ(tanh_mismatches(cache.c, cache.tanh_c), 0u);
}

TEST(LstmCell, FusedPassesBitIdenticalAcrossThreadCounts) {
  testutil::expect_same_bits_across_threads(
      [] { return lstm_fused(500, 16, 32, 34); });
}

TEST(Optim, SgdDescendsQuadratic) {
  nn::Parameter p(Tensor::full(1, 1, 5.0f));
  nn::Sgd sgd(0.1f);
  for (int i = 0; i < 100; ++i) {
    p.grad.at(0, 0) = 2.0f * p.value.at(0, 0);  // d/dx x^2.
    sgd.step({&p});
  }
  EXPECT_NEAR(p.value.at(0, 0), 0.0f, 1e-3f);
}

TEST(Optim, AdamDescendsQuadratic) {
  nn::Parameter p(Tensor::full(1, 1, 5.0f));
  nn::Adam adam(0.1f);
  for (int i = 0; i < 500; ++i) {
    p.grad.at(0, 0) = 2.0f * p.value.at(0, 0);
    adam.step({&p});
  }
  EXPECT_NEAR(p.value.at(0, 0), 0.0f, 1e-2f);
}

TEST(Optim, AdamRejectsChangedParamList) {
  nn::Parameter a(Tensor::zeros(1, 1)), b(Tensor::zeros(1, 1));
  nn::Adam adam;
  adam.step({&a});
  EXPECT_THROW(adam.step({&a, &b}), Error);
}

}  // namespace
}  // namespace pipad
