// Model tests: training dynamics, gradient sanity against numerical
// differentiation, structural invariants of the DGNNs, leaf-input updates,
// and T-GCN's fused recurrent step against its op-by-op chain.
#include <gtest/gtest.h>

#include <cstring>

#include "models/evolvegcn.hpp"
#include "models/mpnn_lstm.hpp"
#include "models/tgcn.hpp"
#include "nn/optim.hpp"
#include "test_util.hpp"

namespace pipad {
namespace {

using models::ModelType;

class ModelTrains : public ::testing::TestWithParam<ModelType> {};

TEST_P(ModelTrains, LossDecreasesOverFrames) {
  const auto g = graph::generate(testutil::tiny_config());
  Rng rng(9);
  auto model = models::make_model(GetParam(), g.feat_dim, 8, rng);
  nn::Adam adam(5e-3f);
  auto params = model->params();

  const graph::Frame frame{0, 6};
  testutil::ReferenceExecutor ex(g, frame);
  const auto xs = testutil::frame_features(g, frame);
  const auto ys = testutil::frame_targets(g, frame);

  float first = 0.0f, last = 0.0f;
  for (int it = 0; it < 30; ++it) {
    nn::zero_grads(params);
    const float loss = model->train_frame(ex, xs, ys);
    adam.step(params);
    if (it == 0) first = loss;
    last = loss;
    ASSERT_TRUE(std::isfinite(loss)) << "iteration " << it;
  }
  EXPECT_LT(last, first * 0.9f)
      << models::model_type_name(GetParam()) << " failed to learn";
}

TEST_P(ModelTrains, EvalMatchesTrainForwardLoss) {
  const auto g = graph::generate(testutil::tiny_config());
  Rng rng(10);
  auto model = models::make_model(GetParam(), g.feat_dim, 8, rng);
  const graph::Frame frame{1, 5};
  testutil::ReferenceExecutor ex(g, frame);
  const auto xs = testutil::frame_features(g, frame);
  const auto ys = testutil::frame_targets(g, frame);
  nn::zero_grads(model->params());
  const float eval = model->eval_frame(ex, xs, ys);
  const float train = model->train_frame(ex, xs, ys);
  EXPECT_NEAR(eval, train, 1e-5f);
}

TEST_P(ModelTrains, GradientsAreNonZeroEverywhere) {
  // Every parameter must participate in the loss (catches detached paths).
  const auto g = graph::generate(testutil::tiny_config());
  Rng rng(11);
  auto model = models::make_model(GetParam(), g.feat_dim, 8, rng);
  const graph::Frame frame{0, 6};
  testutil::ReferenceExecutor ex(g, frame);
  nn::zero_grads(model->params());
  model->train_frame(ex, testutil::frame_features(g, frame),
                     testutil::frame_targets(g, frame));
  int zero_params = 0;
  for (auto* p : model->params()) {
    if (ops::frobenius_norm(p->grad) == 0.0f) ++zero_params;
  }
  EXPECT_EQ(zero_params, 0);
}

TEST_P(ModelTrains, NumericalGradientSpotCheck) {
  // Perturb one weight entry and compare the loss delta against the
  // analytic gradient (end-to-end through aggregation, RNN and head).
  const auto g = graph::generate(testutil::tiny_config(24, 6, 2));
  Rng rng(12);
  auto model = models::make_model(GetParam(), g.feat_dim, 4, rng);
  const graph::Frame frame{0, 4};
  testutil::ReferenceExecutor ex(g, frame);
  const auto xs = testutil::frame_features(g, frame);
  const auto ys = testutil::frame_targets(g, frame);

  auto params = model->params();
  nn::zero_grads(params);
  model->train_frame(ex, xs, ys);

  nn::Parameter* p = params.front();
  const float analytic = p->grad.at(0, 0);
  const float eps = 1e-2f;
  const float orig = p->value.at(0, 0);
  p->value.at(0, 0) = orig + eps;
  const float hi = model->eval_frame(ex, xs, ys);
  p->value.at(0, 0) = orig - eps;
  const float lo = model->eval_frame(ex, xs, ys);
  p->value.at(0, 0) = orig;
  const float numeric = (hi - lo) / (2.0f * eps);
  EXPECT_NEAR(analytic, numeric,
              std::max(2e-2f, std::abs(numeric) * 0.15f))
      << models::model_type_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelTrains,
                         ::testing::Values(ModelType::MpnnLstm,
                                           ModelType::EvolveGcn,
                                           ModelType::TGcn, ModelType::Gcn),
                         [](const auto& info) {
                           std::string n = models::model_type_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(ModelStructure, AggLayerCounts) {
  Rng rng(13);
  EXPECT_EQ(models::make_model(ModelType::MpnnLstm, 2, 4, rng)
                ->num_agg_layers(), 2);
  EXPECT_EQ(models::make_model(ModelType::EvolveGcn, 2, 4, rng)
                ->num_agg_layers(), 2);
  EXPECT_EQ(models::make_model(ModelType::TGcn, 2, 4, rng)->num_agg_layers(),
            1);
  EXPECT_EQ(models::make_model(ModelType::Gcn, 2, 4, rng)->num_agg_layers(),
            2);
}

TEST(ModelStructure, OnlyEvolveGcnEvolvesWeights) {
  Rng rng(14);
  EXPECT_FALSE(
      models::make_model(ModelType::MpnnLstm, 2, 4, rng)->weights_evolve());
  EXPECT_TRUE(
      models::make_model(ModelType::EvolveGcn, 2, 4, rng)->weights_evolve());
  EXPECT_FALSE(
      models::make_model(ModelType::TGcn, 2, 4, rng)->weights_evolve());
  EXPECT_FALSE(
      models::make_model(ModelType::Gcn, 2, 4, rng)->weights_evolve());
}

TEST(ModelStructure, HiddenDimRuleMatchesPaper) {
  EXPECT_EQ(models::default_hidden_dim(2), 6);
  EXPECT_EQ(models::default_hidden_dim(16), 32);
}

TEST(ModelStructure, DeterministicInitAcrossRuns) {
  Rng rng1(42), rng2(42);
  auto m1 = models::make_model(ModelType::MpnnLstm, 3, 8, rng1);
  auto m2 = models::make_model(ModelType::MpnnLstm, 3, 8, rng2);
  auto p1 = m1->params(), p2 = m2->params();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(p1[i]->value, p2[i]->value), 0.0f);
  }
}

// ---------- Leaf inputs: the dX a model skips changes no gradient ----------

/// Forwards every call to `inner`, but computes dX for every update
/// whatever the model asked, and logs the updates it asked to skip.
class NoLeafSkip final : public models::FrameExecutor {
 public:
  explicit NoLeafSkip(models::FrameExecutor& inner) : inner_(inner) {}

  std::vector<Tensor> aggregate(const std::vector<const Tensor*>& xs,
                                int layer_id,
                                const std::string& tag) override {
    return inner_.aggregate(xs, layer_id, tag);
  }
  std::vector<Tensor> aggregate_backward(const std::vector<Tensor>& d_h,
                                         int layer_id,
                                         const std::string& tag) override {
    return inner_.aggregate_backward(d_h, layer_id, tag);
  }
  std::vector<Tensor> update(const std::vector<const Tensor*>& hs,
                             nn::Linear& lin,
                             const std::string& tag) override {
    return inner_.update(hs, lin, tag);
  }
  std::vector<Tensor> update_backward(const std::vector<Tensor>& d_y,
                                      const std::vector<const Tensor*>& hs,
                                      nn::Linear& lin, const std::string& tag,
                                      bool leaf_inputs) override {
    if (leaf_inputs) leaf_tags.push_back(tag);
    std::vector<Tensor> d_hs =
        inner_.update_backward(d_y, hs, lin, tag, /*leaf_inputs=*/false);
    for (const auto& d : d_hs) EXPECT_FALSE(d.empty()) << tag;
    return d_hs;
  }
  kernels::KernelRecorder* recorder() override { return inner_.recorder(); }

  std::vector<std::string> leaf_tags;

 private:
  models::FrameExecutor& inner_;
};

class LeafInputs : public ::testing::TestWithParam<ModelType> {};

TEST_P(LeafInputs, SkippedDxLeavesLossAndGradientsBitIdentical) {
  const auto g = graph::generate(testutil::tiny_config());
  const graph::Frame frame{0, 6};
  const auto xs = testutil::frame_features(g, frame);
  const auto ys = testutil::frame_targets(g, frame);
  Rng rng_skip(13), rng_full(13);
  auto skip = models::make_model(GetParam(), g.feat_dim, 8, rng_skip);
  auto full = models::make_model(GetParam(), g.feat_dim, 8, rng_full);
  testutil::ReferenceExecutor ex(g, frame);
  NoLeafSkip no_skip(ex);
  nn::zero_grads(skip->params());
  nn::zero_grads(full->params());
  const float loss_skip = skip->train_frame(ex, xs, ys);
  const float loss_full = full->train_frame(no_skip, xs, ys);

  EXPECT_EQ(std::memcmp(&loss_skip, &loss_full, sizeof(float)), 0);
  const std::vector<float> p_skip = testutil::flat_params(*skip);
  const std::vector<float> p_full = testutil::flat_params(*full);
  ASSERT_EQ(p_skip.size(), p_full.size());
  EXPECT_EQ(std::memcmp(p_skip.data(), p_full.data(),
                        p_skip.size() * sizeof(float)),
            0);
  // Exactly the updates fed by layer-0 aggregation are leaves.
  std::vector<std::string> want;
  switch (GetParam()) {
    case ModelType::TGcn:
      want = {"gcn.gate_z", "gcn.gate_r", "gcn.gate_n"};
      break;
    case ModelType::Gcn:
    case ModelType::MpnnLstm:
      want = {"gcn.l1"};
      break;
    case ModelType::EvolveGcn:  // Its GCN updates are not executor updates.
      break;
  }
  EXPECT_EQ(no_skip.leaf_tags, want);
}

INSTANTIATE_TEST_SUITE_P(AllModels, LeafInputs,
                         ::testing::Values(ModelType::MpnnLstm,
                                           ModelType::EvolveGcn,
                                           ModelType::TGcn, ModelType::Gcn),
                         [](const auto& info) {
                           std::string n = models::model_type_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---------- T-GCN's fused step vs the op-by-op chain it replaced ----------

using testutil::randn_with_zeros;
using testutil::same_bits;

/// One step and its backward as separate tensor ops, in the order T-GCN
/// used before its gate math was fused.
struct TgcnChain {
  Tensor z, r, n, rh, h, dh_prev, d_uz, d_ur, d_un;
};

TgcnChain tgcn_chain(nn::Linear& hz, nn::Linear& hr, nn::Linear& hn,
                     const Tensor& uz, const Tensor& ur, const Tensor& un,
                     const Tensor& h_prev, const Tensor& dh) {
  TgcnChain o;
  Tensor az = hz.forward(h_prev, nullptr, "t");
  ops::add_inplace(az, uz);
  Tensor ar = hr.forward(h_prev, nullptr, "t");
  ops::add_inplace(ar, ur);
  o.z = ops::sigmoid(az);
  o.r = ops::sigmoid(ar);
  o.rh = ops::mul(o.r, h_prev);
  Tensor an = hn.forward(o.rh, nullptr, "t");
  ops::add_inplace(an, un);
  o.n = ops::tanh(an);
  o.h = Tensor(h_prev.rows(), h_prev.cols());
  for (std::size_t i = 0; i < o.h.size(); ++i) {
    const float z = o.z.data()[i];
    o.h.data()[i] = (1.0f - z) * o.n.data()[i] + z * h_prev.data()[i];
  }

  Tensor dz = ops::mul(dh, ops::sub(h_prev, o.n));
  Tensor dn =
      ops::mul(dh, ops::sub(Tensor::full(dh.rows(), dh.cols(), 1.0f), o.z));
  o.dh_prev = ops::mul(dh, o.z);
  o.d_un = ops::tanh_grad(dn, o.n);
  Tensor drh = hn.backward(o.rh, o.d_un, nullptr, "t");
  Tensor dr = ops::mul(drh, h_prev);
  ops::add_inplace(o.dh_prev, ops::mul(drh, o.r));
  o.d_uz = ops::sigmoid_grad(dz, o.z);
  o.d_ur = ops::sigmoid_grad(dr, o.r);
  ops::add_inplace(o.dh_prev, hz.backward(h_prev, o.d_uz, nullptr, "t"));
  ops::add_inplace(o.dh_prev, hr.backward(h_prev, o.d_ur, nullptr, "t"));
  return o;
}

/// Gate inputs, state and upstream grad for one step.
struct StepInputs {
  Tensor uz, ur, un, h0, dh;
  StepInputs(int rows, int hid, Rng& rng)
      : uz(randn_with_zeros(rows, hid, rng)),
        ur(randn_with_zeros(rows, hid, rng)),
        un(randn_with_zeros(rows, hid, rng)),
        h0(randn_with_zeros(rows, hid, rng)),
        dh(randn_with_zeros(rows, hid, rng)) {}
};

/// A seeded T-GCN with nonzero biases.
models::TGcn seeded_tgcn(int hid, Rng& rng) {
  models::TGcn model(3, hid, rng);
  testutil::randomize_biases(model.params(), rng);
  return model;
}

void expect_tgcn_step_matches_chain(int rows, int hid, std::uint64_t seed) {
  Rng rng(seed);
  models::TGcn model = seeded_tgcn(hid, rng);
  const StepInputs in(rows, hid, rng);
  // params(): gate_z, gate_r, gate_n, hz, hr, hn, head, each (W, b).
  const auto p = model.params();
  std::vector<nn::Linear> u(3);
  for (int g = 0; g < 3; ++g) {
    u[g] = nn::Linear(hid, hid, rng);
    u[g].weight().value = p[6 + 2 * g]->value;
    u[g].bias().value = p[7 + 2 * g]->value;
  }

  models::TGcn::StepCache cache;
  const Tensor h = model.step(in.uz, in.ur, in.un, in.h0, cache, nullptr);
  Tensor d_uz, d_ur, d_un;
  const Tensor dh0 =
      model.step_backward(cache, in.dh, d_uz, d_ur, d_un, nullptr);
  const TgcnChain want =
      tgcn_chain(u[0], u[1], u[2], in.uz, in.ur, in.un, in.h0, in.dh);

  EXPECT_TRUE(same_bits(cache.z, want.z));
  EXPECT_TRUE(same_bits(cache.r, want.r));
  EXPECT_TRUE(same_bits(cache.n, want.n));
  EXPECT_TRUE(same_bits(cache.rh, want.rh));
  EXPECT_TRUE(same_bits(h, want.h));
  EXPECT_TRUE(same_bits(dh0, want.dh_prev));
  EXPECT_TRUE(same_bits(d_uz, want.d_uz));
  EXPECT_TRUE(same_bits(d_ur, want.d_ur));
  EXPECT_TRUE(same_bits(d_un, want.d_un));
  for (int g = 0; g < 3; ++g) {
    EXPECT_TRUE(same_bits(p[6 + 2 * g]->grad, u[g].weight().grad)) << g;
    EXPECT_TRUE(same_bits(p[7 + 2 * g]->grad, u[g].bias().grad)) << g;
  }
}

TEST(TgcnStep, FusedPassesMatchOpChainBitForBit) {
  expect_tgcn_step_matches_chain(67, 9, 51);  // Strip tails everywhere.
  expect_tgcn_step_matches_chain(300, 32, 52);
}

// The candidate's tanh equals libm's tanhf in every column, including the
// scalar tail of a hidden size that is not a multiple of 4.
TEST(TgcnStep, CandidateTanhMatchesLibmWithHiddenSizeNotAMultipleOf4) {
  Rng rng(54);
  models::TGcn model = seeded_tgcn(7, rng);
  StepInputs in(67, 7, rng);
  ops::scale_inplace(in.un, 4.0f);  // Reach |x| > 1 too.
  models::TGcn::StepCache cache;
  model.step(in.uz, in.ur, in.un, in.h0, cache, nullptr);
  // an = (rh U_n + b_n) + u_n; params() index 10/11 is hn's (W, b).
  const auto p = model.params();
  Tensor an = ops::matmul(cache.rh, p[10]->value);
  ops::add_bias(an, p[11]->value);
  ops::add_inplace(an, in.un);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < an.size(); ++i) {
    const float want = std::tanh(an.data()[i]);
    mismatches += std::memcmp(&want, cache.n.data() + i, sizeof want) != 0;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(TgcnStep, FusedPassesBitIdenticalAcrossThreadCounts) {
  testutil::expect_same_bits_across_threads([] {
    Rng rng(53);
    models::TGcn model = seeded_tgcn(32, rng);
    const StepInputs in(700, 32, rng);
    models::TGcn::StepCache cache;
    std::vector<Tensor> out{
        model.step(in.uz, in.ur, in.un, in.h0, cache, nullptr)};
    Tensor d_uz, d_ur, d_un;
    out.push_back(
        model.step_backward(cache, in.dh, d_uz, d_ur, d_un, nullptr));
    out.insert(out.end(), {d_uz, d_ur, d_un});
    for (auto* p : model.params()) out.push_back(p->grad);
    return out;
  });
}

}  // namespace
}  // namespace pipad
