#include "models/gcn.hpp"

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::models {

std::vector<Tensor> GcnLayer::forward(FrameExecutor& ex,
                                      const std::vector<const Tensor*>& xs,
                                      int layer_id, Cache& cache,
                                      const std::string& tag) {
  cache.hidden = ex.aggregate(xs, layer_id, tag);
  std::vector<const Tensor*> hptr;
  hptr.reserve(cache.hidden.size());
  for (const auto& h : cache.hidden) hptr.push_back(&h);
  cache.pre_act = ex.update(hptr, lin_, tag);

  std::vector<Tensor> out;
  out.reserve(cache.pre_act.size());
  for (const auto& y : cache.pre_act) {
    if (relu_) {
      out.push_back(ops::relu(y));
      if (ex.recorder() != nullptr) {
        ex.recorder()->record("ew:" + tag + ".relu",
                              kernels::elementwise_stats(y.size(), 1, 1));
      }
    } else {
      out.push_back(y);
    }
  }
  return out;
}

std::vector<Tensor> GcnLayer::backward(FrameExecutor& ex,
                                       const std::vector<Tensor>& d_out,
                                       const Cache& cache, int layer_id,
                                       const std::string& tag) {
  PIPAD_CHECK(d_out.size() == cache.pre_act.size());
  std::vector<Tensor> d_y;
  d_y.reserve(d_out.size());
  for (std::size_t t = 0; t < d_out.size(); ++t) {
    if (relu_) {
      d_y.push_back(ops::relu_grad(d_out[t], cache.pre_act[t]));
      if (ex.recorder() != nullptr) {
        ex.recorder()->record(
            "ew:" + tag + ".relu.bwd",
            kernels::elementwise_stats(d_out[t].size(), 2, 1));
      }
    } else {
      d_y.push_back(d_out[t]);
    }
  }

  std::vector<const Tensor*> hptr;
  hptr.reserve(cache.hidden.size());
  for (const auto& h : cache.hidden) hptr.push_back(&h);
  // Layer 0 aggregated the raw features: its inputs are leaves.
  const bool leaf = layer_id == 0;
  std::vector<Tensor> d_hidden = ex.update_backward(d_y, hptr, lin_, tag, leaf);
  if (leaf) return {};
  return ex.aggregate_backward(d_hidden, layer_id, tag);
}

Gcn::Gcn(int in_dim, int hidden_dim, Rng& rng)
    : gcn1_(in_dim, hidden_dim, rng),
      gcn2_(hidden_dim, hidden_dim, rng),
      head_(hidden_dim, 1, rng) {}

float Gcn::train_frame(FrameExecutor& ex,
                       const std::vector<const Tensor*>& xs,
                       const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, /*train=*/true);
}

float Gcn::eval_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                      const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, /*train=*/false);
}

float Gcn::run_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                     const std::vector<const Tensor*>& targets, bool train) {
  PIPAD_CHECK(xs.size() == targets.size() && !xs.empty());

  GcnLayer::Cache c1, c2;
  std::vector<Tensor> e1 = gcn1_.forward(ex, xs, /*layer_id=*/0, c1, "gcn.l1");
  std::vector<const Tensor*> e1p;
  for (const auto& t : e1) e1p.push_back(&t);
  std::vector<Tensor> e2 = gcn2_.forward(ex, e1p, /*layer_id=*/1, c2, "gcn.l2");

  std::vector<const Tensor*> e2p;
  for (const auto& t : e2) e2p.push_back(&t);
  std::vector<Tensor> preds = ex.update(e2p, head_, "head.fc");

  std::vector<Tensor> d_preds;
  const float loss =
      frame_mse_loss(preds, targets, train, d_preds, ex.recorder());
  if (!train) return loss;

  std::vector<Tensor> d_e2 = ex.update_backward(
      d_preds, e2p, head_, "head.fc", /*leaf_inputs=*/false);
  std::vector<Tensor> d_e1 = gcn2_.backward(ex, d_e2, c2, 1, "gcn.l2");
  gcn1_.backward(ex, d_e1, c1, 0, "gcn.l1");
  return loss;
}

std::vector<nn::Parameter*> Gcn::params() {
  std::vector<nn::Parameter*> ps;
  for (auto* p : gcn1_.params()) ps.push_back(p);
  for (auto* p : gcn2_.params()) ps.push_back(p);
  for (auto* p : head_.params()) ps.push_back(p);
  return ps;
}

}  // namespace pipad::models
