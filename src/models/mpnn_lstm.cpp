#include "models/mpnn_lstm.hpp"

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::models {

MpnnLstm::MpnnLstm(int in_dim, int hidden_dim, Rng& rng)
    : gcn1_(in_dim, hidden_dim, rng),
      gcn2_(hidden_dim, hidden_dim, rng),
      lstm1_(hidden_dim, hidden_dim, rng),
      lstm2_(hidden_dim, hidden_dim, rng),
      head_(hidden_dim, 1, rng) {}

float MpnnLstm::train_frame(FrameExecutor& ex,
                            const std::vector<const Tensor*>& xs,
                            const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, /*train=*/true);
}

float MpnnLstm::eval_frame(FrameExecutor& ex,
                           const std::vector<const Tensor*>& xs,
                           const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, /*train=*/false);
}

float MpnnLstm::run_frame(FrameExecutor& ex,
                          const std::vector<const Tensor*>& xs,
                          const std::vector<const Tensor*>& targets,
                          bool train) {
  PIPAD_CHECK(xs.size() == targets.size() && !xs.empty());

  // ---- GNN portion (snapshot-parallel) ----
  GcnLayer::Cache c1, c2;
  std::vector<Tensor> e1 = gcn1_.forward(ex, xs, /*layer_id=*/0, c1, "gcn.l1");
  std::vector<const Tensor*> e1p;
  for (const auto& t : e1) e1p.push_back(&t);
  std::vector<Tensor> e2 = gcn2_.forward(ex, e1p, /*layer_id=*/1, c2, "gcn.l2");

  // ---- RNN portion (timeline chain) ----
  std::vector<const Tensor*> e2p;
  for (const auto& t : e2) e2p.push_back(&t);
  nn::LSTMSequence seq1(&lstm1_);
  std::vector<Tensor> h1 = seq1.forward(e2p, ex.recorder(), "rnn.lstm1");
  std::vector<const Tensor*> h1p;
  for (const auto& t : h1) h1p.push_back(&t);
  nn::LSTMSequence seq2(&lstm2_);
  std::vector<Tensor> h2 = seq2.forward(h1p, ex.recorder(), "rnn.lstm2");

  // ---- Head + loss ----
  std::vector<const Tensor*> h2p;
  for (const auto& t : h2) h2p.push_back(&t);
  std::vector<Tensor> preds = ex.update(h2p, head_, "head.fc");

  std::vector<Tensor> d_preds;
  const float loss =
      frame_mse_loss(preds, targets, train, d_preds, ex.recorder());
  if (!train) return loss;

  // ---- Backward ----
  std::vector<Tensor> d_h2 = ex.update_backward(
      d_preds, h2p, head_, "head.fc", /*leaf_inputs=*/false);
  std::vector<Tensor> d_h1 = seq2.backward(d_h2, ex.recorder(), "rnn.lstm2");
  std::vector<Tensor> d_e2 = seq1.backward(d_h1, ex.recorder(), "rnn.lstm1");
  std::vector<Tensor> d_e1 = gcn2_.backward(ex, d_e2, c2, 1, "gcn.l2");
  gcn1_.backward(ex, d_e1, c1, 0, "gcn.l1");
  return loss;
}

std::vector<nn::Parameter*> MpnnLstm::params() {
  std::vector<nn::Parameter*> ps;
  for (auto* p : gcn1_.params()) ps.push_back(p);
  for (auto* p : gcn2_.params()) ps.push_back(p);
  for (auto* p : lstm1_.params()) ps.push_back(p);
  for (auto* p : lstm2_.params()) ps.push_back(p);
  for (auto* p : head_.params()) ps.push_back(p);
  return ps;
}

}  // namespace pipad::models
