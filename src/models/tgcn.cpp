#include "models/tgcn.hpp"

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::models {

namespace {
void record(kernels::KernelRecorder* rec, const std::string& name,
            const gpusim::KernelStats& s) {
  if (rec != nullptr) rec->record(name, s);
}
}  // namespace

TGcn::TGcn(int in_dim, int hidden_dim, Rng& rng)
    : hid_(hidden_dim),
      gate_z_(in_dim, hidden_dim, rng),
      gate_r_(in_dim, hidden_dim, rng),
      gate_n_(in_dim, hidden_dim, rng),
      hz_(hidden_dim, hidden_dim, rng),
      hr_(hidden_dim, hidden_dim, rng),
      hn_(hidden_dim, hidden_dim, rng),
      head_(hidden_dim, 1, rng) {}

Tensor TGcn::step(const Tensor& uz, const Tensor& ur, const Tensor& un,
                  const Tensor& h_prev, StepCache& cache,
                  kernels::KernelRecorder* rec) {
  const int rows = h_prev.rows();
  cache.h_prev = h_prev;
  const Tensor yz = hz_.forward_unbiased(h_prev, rec, "rnn.tgcn.hz");
  const Tensor yr = hr_.forward_unbiased(h_prev, rec, "rnn.tgcn.hr");
  const float* bz = hz_.bias().value.row(0);
  const float* br = hr_.bias().value.row(0);
  cache.z = Tensor(rows, hid_);
  cache.r = Tensor(rows, hid_);
  cache.rh = Tensor(rows, hid_);
  // z = σ((h U_z + b_z) + u_z), r = σ((h U_r + b_r) + u_r), rh = r ⊙ h.
  ops::par_rows(rows, h_prev.size(), [&](int i) {
    const float *pyz = yz.row(i), *pyr = yr.row(i);
    const float *puz = uz.row(i), *pur = ur.row(i), *ph = h_prev.row(i);
    float *pz = cache.z.row(i), *pr = cache.r.row(i), *prh = cache.rh.row(i);
    for (int c = 0; c < hid_; ++c) {
      pz[c] = ops::sigmoid((pyz[c] + bz[c]) + puz[c]);
      pr[c] = ops::sigmoid((pyr[c] + br[c]) + pur[c]);
      prh[c] = pr[c] * ph[c];
    }
  });

  const Tensor yn = hn_.forward_unbiased(cache.rh, rec, "rnn.tgcn.hn");
  const float* bn = hn_.bias().value.row(0);
  cache.n = Tensor(rows, hid_);
  Tensor h(rows, hid_);
  // n = tanh((rh U_n + b_n) + u_n), h = (1 - z) ⊙ n + z ⊙ h_prev.
  ops::par_rows(rows, h.size(), [&](int i) {
    const float *pyn = yn.row(i), *pun = un.row(i), *pz = cache.z.row(i);
    const float* ph = h_prev.row(i);
    float *pn = cache.n.row(i), *pout = h.row(i);
    for (int c = 0; c < hid_; ++c) pn[c] = (pyn[c] + bn[c]) + pun[c];
    ops::tanh_n(pn, pn, hid_);
    for (int c = 0; c < hid_; ++c) {
      pout[c] = (1.0f - pz[c]) * pn[c] + pz[c] * ph[c];
    }
  });
  record(rec, "ew:rnn.tgcn.act",
         kernels::elementwise_stats(3 * h.size(), 1, 5));
  return h;
}

Tensor TGcn::step_backward(const StepCache& cache, const Tensor& dh,
                           Tensor& d_uz, Tensor& d_ur, Tensor& d_un,
                           kernels::KernelRecorder* rec) {
  const int rows = dh.rows();
  const std::size_t size = dh.size();
  Tensor dh_prev(rows, hid_);
  d_uz = Tensor(rows, hid_);
  d_un = Tensor(rows, hid_);
  // h = (1-z)*n + z*h_prev: dh_prev = dh*z; through the candidate's tanh,
  // d_un = (dh*(1-z))*(1-n^2); through z's sigmoid,
  // d_uz = ((dh*(h_prev-n))*z)*(1-z).
  {
    const float *pdh = dh.data(), *pz = cache.z.data(), *pn = cache.n.data();
    const float* ph = cache.h_prev.data();
    float *pdhp = dh_prev.data(), *pduz = d_uz.data(), *pdun = d_un.data();
    ops::par_elems(size, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        pdhp[i] = pdh[i] * pz[i];
        pdun[i] = ops::tanh_grad(pdh[i] * (1.0f - pz[i]), pn[i]);
        pduz[i] = ops::sigmoid_grad(pdh[i] * (ph[i] - pn[i]), pz[i]);
      }
    });
  }

  // Candidate branch: an = un + U_n(rh), rh = r ⊙ h_prev.
  const Tensor drh = hn_.backward(cache.rh, d_un, rec, "rnn.tgcn.hn");
  d_ur = Tensor(rows, hid_);
  {
    const float *pdrh = drh.data(), *pr = cache.r.data();
    const float* ph = cache.h_prev.data();
    float *pdhp = dh_prev.data(), *pdur = d_ur.data();
    ops::par_elems(size, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        pdur[i] = ops::sigmoid_grad(pdrh[i] * ph[i], pr[i]);
        pdhp[i] += pdrh[i] * pr[i];
      }
    });
  }

  // Gates' hidden transforms.
  const Tensor dhz = hz_.backward(cache.h_prev, d_uz, rec, "rnn.tgcn.hz");
  const Tensor dhr = hr_.backward(cache.h_prev, d_ur, rec, "rnn.tgcn.hr");
  {
    const float *pz = dhz.data(), *pr = dhr.data();
    float* pdhp = dh_prev.data();
    ops::par_elems(size, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) pdhp[i] = (pdhp[i] + pz[i]) + pr[i];
    });
  }
  record(rec, "ew:rnn.tgcn.act.bwd",
         kernels::elementwise_stats(6 * dh.size(), 2, 6));
  return dh_prev;
}

float TGcn::train_frame(FrameExecutor& ex,
                        const std::vector<const Tensor*>& xs,
                        const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, true);
}

float TGcn::eval_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                       const std::vector<const Tensor*>& targets) {
  return run_frame(ex, xs, targets, false);
}

float TGcn::run_frame(FrameExecutor& ex, const std::vector<const Tensor*>& xs,
                      const std::vector<const Tensor*>& targets, bool train) {
  PIPAD_CHECK(xs.size() == targets.size() && !xs.empty());
  const int T = static_cast<int>(xs.size());
  auto* rec = ex.recorder();

  // ---- GNN portion: one aggregation feeds all three gate updates ----
  std::vector<Tensor> agg = ex.aggregate(xs, /*layer_id=*/0, "gcn.gates");
  std::vector<const Tensor*> aggp;
  for (const auto& t : agg) aggp.push_back(&t);
  std::vector<Tensor> uz = ex.update(aggp, gate_z_, "gcn.gate_z");
  std::vector<Tensor> ur = ex.update(aggp, gate_r_, "gcn.gate_r");
  std::vector<Tensor> un = ex.update(aggp, gate_n_, "gcn.gate_n");

  // ---- Recurrent chain ----
  const int n_rows = xs[0]->rows();
  std::vector<StepCache> caches(T);
  std::vector<Tensor> hs(T);
  Tensor h = Tensor::zeros(n_rows, hid_);
  for (int t = 0; t < T; ++t) {
    h = step(uz[t], ur[t], un[t], h, caches[t], rec);
    hs[t] = h;
  }

  // ---- Head + loss ----
  std::vector<const Tensor*> hsp;
  for (const auto& t : hs) hsp.push_back(&t);
  std::vector<Tensor> preds = ex.update(hsp, head_, "head.fc");

  std::vector<Tensor> d_preds;
  const float loss = frame_mse_loss(preds, targets, train, d_preds, rec);
  if (!train) return loss;

  // ---- Backward ----
  std::vector<Tensor> d_hs = ex.update_backward(
      d_preds, hsp, head_, "head.fc", /*leaf_inputs=*/false);

  std::vector<Tensor> d_uz(T), d_ur(T), d_un(T);
  Tensor carry = Tensor::zeros(n_rows, hid_);
  for (int t = T - 1; t >= 0; --t) {
    Tensor dh = carry;
    if (!d_hs[t].empty()) ops::add_inplace(dh, d_hs[t]);
    carry = step_backward(caches[t], dh, d_uz[t], d_ur[t], d_un[t], rec);
  }

  // The gate inputs are layer-0 aggregations of the raw features: leaves,
  // so only the gate weights get gradients.
  ex.update_backward(d_uz, aggp, gate_z_, "gcn.gate_z", /*leaf_inputs=*/true);
  ex.update_backward(d_ur, aggp, gate_r_, "gcn.gate_r", /*leaf_inputs=*/true);
  ex.update_backward(d_un, aggp, gate_n_, "gcn.gate_n", /*leaf_inputs=*/true);
  return loss;
}

std::vector<nn::Parameter*> TGcn::params() {
  std::vector<nn::Parameter*> ps;
  for (auto* l : {&gate_z_, &gate_r_, &gate_n_, &hz_, &hr_, &hn_, &head_}) {
    for (auto* p : l->params()) ps.push_back(p);
  }
  return ps;
}

}  // namespace pipad::models
