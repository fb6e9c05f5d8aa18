#include "models/evolvegcn.hpp"

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::models {

namespace {
void record(kernels::KernelRecorder* rec, const std::string& name,
            const gpusim::KernelStats& s) {
  if (rec != nullptr) rec->record(name, s);
}
}  // namespace

EvolveGcn::EvolveGcn(int in_dim, int hidden_dim, Rng& rng)
    : l1_(in_dim, hidden_dim, rng),
      l2_(hidden_dim, hidden_dim, rng),
      head_(hidden_dim, 1, rng) {}

std::vector<Tensor> EvolveGcn::EvolvingLayer::evolve(
    int T, std::vector<nn::GRUCell::Cache>& caches,
    kernels::KernelRecorder* rec, const std::string& tag) const {
  caches.assign(T, {});
  std::vector<Tensor> ws;
  ws.reserve(T);
  Tensor w = w0.value;
  for (int t = 0; t < T; ++t) {
    // EvolveGCN-O: the weight matrix is both input and hidden state.
    w = gru.forward(w, w, caches[t], rec, tag);
    ws.push_back(w);
  }
  return ws;
}

void EvolveGcn::EvolvingLayer::evolve_backward(
    const std::vector<Tensor>& d_ws, std::vector<nn::GRUCell::Cache>& caches,
    kernels::KernelRecorder* rec, const std::string& tag) {
  const int T = static_cast<int>(d_ws.size());
  Tensor carry = Tensor::zeros(w0.value.rows(), w0.value.cols());
  for (int t = T - 1; t >= 0; --t) {
    Tensor dh = carry;
    if (!d_ws[t].empty()) ops::add_inplace(dh, d_ws[t]);
    auto [dx, dh_prev] = gru.backward(caches[t], dh, rec, tag);
    // Input and hidden were the same tensor: both grads flow to W_{t-1}.
    carry = std::move(dh_prev);
    ops::add_inplace(carry, dx);
  }
  ops::add_inplace(w0.grad, carry);
}

float EvolveGcn::train_frame(FrameExecutor& ex,
                             const std::vector<const Tensor*>& xs,
                             const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, true);
}

float EvolveGcn::eval_frame(FrameExecutor& ex,
                            const std::vector<const Tensor*>& xs,
                            const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, false);
}

float EvolveGcn::run_frame(FrameExecutor& ex,
                           const std::vector<const Tensor*>& xs,
                           const std::vector<const Tensor*>& targets,
                           bool train) {
  PIPAD_CHECK(xs.size() == targets.size() && !xs.empty());
  const int T = static_cast<int>(xs.size());
  auto* rec = ex.recorder();

  // ---- Evolve both layers' weights along the frame ----
  std::vector<nn::GRUCell::Cache> gcache1, gcache2;
  std::vector<Tensor> w1 = l1_.evolve(T, gcache1, rec, "rnn.evolve1");
  std::vector<Tensor> w2 = l2_.evolve(T, gcache2, rec, "rnn.evolve2");

  // ---- Layer 1: aggregate raw features (cacheable), per-snapshot update ----
  std::vector<Tensor> agg1 = ex.aggregate(xs, /*layer_id=*/0, "gcn.l1");
  std::vector<Tensor> pre1(T), out1(T);
  for (int t = 0; t < T; ++t) {
    pre1[t] = ops::matmul(agg1[t], w1[t]);
    out1[t] = ops::relu(pre1[t]);
    record(rec, "gemm:gcn.l1.update",
           kernels::gemm_stats(agg1[t].rows(), agg1[t].cols(), w1[t].cols()));
  }

  // ---- Layer 2: aggregate activations (never cacheable) ----
  std::vector<const Tensor*> out1p;
  for (const auto& t : out1) out1p.push_back(&t);
  std::vector<Tensor> agg2 = ex.aggregate(out1p, /*layer_id=*/1, "gcn.l2");
  std::vector<Tensor> pre2(T), out2(T);
  for (int t = 0; t < T; ++t) {
    pre2[t] = ops::matmul(agg2[t], w2[t]);
    out2[t] = ops::relu(pre2[t]);
    record(rec, "gemm:gcn.l2.update",
           kernels::gemm_stats(agg2[t].rows(), agg2[t].cols(), w2[t].cols()));
  }

  // ---- Head + loss ----
  std::vector<const Tensor*> out2p;
  for (const auto& t : out2) out2p.push_back(&t);
  std::vector<Tensor> preds = ex.update(out2p, head_, "head.fc");

  std::vector<Tensor> d_preds;
  const float loss = frame_mse_loss(preds, targets, train, d_preds, rec);
  if (!train) return loss;

  // ---- Backward ----
  std::vector<Tensor> d_out2 = ex.update_backward(
      d_preds, out2p, head_, "head.fc", /*leaf_inputs=*/false);

  std::vector<Tensor> d_agg2(T), d_w2(T);
  for (int t = 0; t < T; ++t) {
    Tensor d_pre2 = ops::relu_grad(d_out2[t], pre2[t]);
    d_w2[t] = ops::matmul(agg2[t], d_pre2, /*trans_a=*/true);
    d_agg2[t] = ops::matmul(d_pre2, w2[t], false, /*trans_b=*/true);
    record(rec, "gemm:gcn.l2.update.bwd",
           kernels::gemm_stats(agg2[t].cols(), agg2[t].rows(), d_pre2.cols()));
  }
  std::vector<Tensor> d_out1 =
      ex.aggregate_backward(d_agg2, /*layer_id=*/1, "gcn.l2");

  std::vector<Tensor> d_w1(T);
  for (int t = 0; t < T; ++t) {
    Tensor d_pre1 = ops::relu_grad(d_out1[t], pre1[t]);
    d_w1[t] = ops::matmul(agg1[t], d_pre1, /*trans_a=*/true);
    record(rec, "gemm:gcn.l1.update.bwd",
           kernels::gemm_stats(agg1[t].cols(), agg1[t].rows(), d_pre1.cols()));
    // Layer 0 aggregation: inputs are leaves, no aggregate_backward.
  }

  l2_.evolve_backward(d_w2, gcache2, rec, "rnn.evolve2");
  l1_.evolve_backward(d_w1, gcache1, rec, "rnn.evolve1");
  return loss;
}

std::vector<nn::Parameter*> EvolveGcn::params() {
  std::vector<nn::Parameter*> ps;
  ps.push_back(&l1_.w0);
  for (auto* p : l1_.gru.params()) ps.push_back(p);
  ps.push_back(&l2_.w0);
  for (auto* p : l2_.gru.params()) ps.push_back(p);
  for (auto* p : head_.params()) ps.push_back(p);
  return ps;
}

}  // namespace pipad::models
