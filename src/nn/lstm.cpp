#include "nn/lstm.hpp"

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::nn {

namespace {
void record(kernels::KernelRecorder* rec, const std::string& name,
            const gpusim::KernelStats& s) {
  if (rec != nullptr) rec->record(name, s);
}
}  // namespace

LSTMCell::LSTMCell(int input_dim, int hidden_dim, Rng& rng)
    : in_(input_dim),
      hid_(hidden_dim),
      w_(Parameter::glorot(input_dim + hidden_dim, 4 * hidden_dim, rng)),
      b_(Parameter::zeros(1, 4 * hidden_dim)) {}

std::pair<Tensor, Tensor> LSTMCell::forward(const Tensor& x,
                                            const Tensor& h_prev,
                                            const Tensor& c_prev,
                                            Cache& cache,
                                            kernels::KernelRecorder* rec,
                                            const std::string& tag) const {
  PIPAD_CHECK_MSG(x.cols() == in_, "LSTM input dim mismatch");
  PIPAD_CHECK_MSG(h_prev.cols() == hid_ && c_prev.cols() == hid_,
                  "LSTM hidden dim mismatch");
  const int rows = x.rows();
  cache.xh = ops::concat_cols(x, h_prev);
  const Tensor gates = ops::matmul(cache.xh, w_.value);
  record(rec, "gemm:" + tag + ".gates",
         kernels::gemm_stats(x.rows(), in_ + hid_, 4 * hid_));

  cache.i = Tensor(rows, hid_);
  cache.f = Tensor(rows, hid_);
  cache.g = Tensor(rows, hid_);
  cache.o = Tensor(rows, hid_);
  cache.c_prev = c_prev;
  cache.c = Tensor(rows, hid_);
  cache.tanh_c = Tensor(rows, hid_);
  Tensor h(rows, hid_);
  // Gate order i|f|g|o on a = xh W + b; c = f ⊙ c_prev + i ⊙ g and
  // h = o ⊙ tanh(c).
  const float* b = b_.value.row(0);
  ops::par_rows(rows, gates.size(), [&](int r) {
    const float *pa = gates.row(r), *pcp = c_prev.row(r);
    float *pi = cache.i.row(r), *pf = cache.f.row(r), *pg = cache.g.row(r);
    float *po = cache.o.row(r), *pc = cache.c.row(r);
    float *ptc = cache.tanh_c.row(r), *ph = h.row(r);
    for (int c = 0; c < hid_; ++c) {
      pi[c] = ops::sigmoid(pa[c] + b[c]);
      pf[c] = ops::sigmoid(pa[hid_ + c] + b[hid_ + c]);
      pg[c] = pa[2 * hid_ + c] + b[2 * hid_ + c];
      po[c] = ops::sigmoid(pa[3 * hid_ + c] + b[3 * hid_ + c]);
    }
    ops::tanh_n(pg, pg, hid_);
    for (int c = 0; c < hid_; ++c) pc[c] = pf[c] * pcp[c] + pi[c] * pg[c];
    ops::tanh_n(pc, ptc, hid_);
    for (int c = 0; c < hid_; ++c) ph[c] = po[c] * ptc[c];
  });
  record(rec, "ew:" + tag + ".act",
         kernels::elementwise_stats(gates.size(), 1, 6));
  return {std::move(h), cache.c};
}

std::tuple<Tensor, Tensor, Tensor> LSTMCell::backward(
    const Cache& cache, const Tensor& dh, const Tensor& dc,
    kernels::KernelRecorder* rec, const std::string& tag) {
  const int rows = dh.rows();
  const bool has_dc = !dc.empty();
  Tensor da(rows, 4 * hid_);
  Tensor dc_prev(rows, hid_);
  // dc_total = dh*o*(1 - tanh_c^2) + dc, then through each gate's
  // nonlinearity into da = [da_i | da_f | da_g | da_o]. Each da entry is
  // written as 0 + x, the value a scatter into a zeroed da holds (-0 reads
  // back as +0).
  ops::par_rows(rows, da.size(), [&](int r) {
    const float *pdh = dh.row(r), *pdc = has_dc ? dc.row(r) : nullptr;
    const float *pi = cache.i.row(r), *pf = cache.f.row(r);
    const float *pg = cache.g.row(r), *po = cache.o.row(r);
    const float *pcp = cache.c_prev.row(r), *ptc = cache.tanh_c.row(r);
    float *pda = da.row(r), *pdcp = dc_prev.row(r);
    for (int c = 0; c < hid_; ++c) {
      float dct = ops::tanh_grad(pdh[c] * po[c], ptc[c]);
      if (has_dc) dct += pdc[c];
      pdcp[c] = dct * pf[c];
      pda[c] = 0.0f + ops::sigmoid_grad(dct * pg[c], pi[c]);
      pda[hid_ + c] = 0.0f + ops::sigmoid_grad(dct * pcp[c], pf[c]);
      pda[2 * hid_ + c] = 0.0f + ops::tanh_grad(dct * pi[c], pg[c]);
      pda[3 * hid_ + c] = 0.0f + ops::sigmoid_grad(pdh[c] * ptc[c], po[c]);
    }
  });
  record(rec, "ew:" + tag + ".act.bwd",
         kernels::elementwise_stats(da.size(), 2, 8));

  // Parameter grads and input grad.
  ops::gemm(cache.xh, da, w_.grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(b_.grad, ops::bias_grad(da));
  Tensor dxh = ops::matmul(da, w_.value, false, true);
  record(rec, "gemm:" + tag + ".gates.dw",
         kernels::gemm_stats(cache.xh.cols(), cache.xh.rows(), da.cols()));
  record(rec, "gemm:" + tag + ".gates.dx",
         kernels::gemm_stats(da.rows(), da.cols(), cache.xh.cols()));

  auto [dx, dh_prev] = ops::split_cols(dxh, in_);
  return {std::move(dx), std::move(dh_prev), std::move(dc_prev)};
}

std::vector<Tensor> LSTMSequence::forward(
    const std::vector<const Tensor*>& xs, kernels::KernelRecorder* rec,
    const std::string& tag) {
  PIPAD_CHECK(!xs.empty());
  rows_ = xs[0]->rows();
  caches_.assign(xs.size(), {});
  Tensor h = Tensor::zeros(rows_, cell_->hidden_dim());
  Tensor c = Tensor::zeros(rows_, cell_->hidden_dim());
  std::vector<Tensor> hs;
  hs.reserve(xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    auto [h_new, c_new] =
        cell_->forward(*xs[t], h, c, caches_[t], rec, tag);
    h = h_new;
    c = std::move(c_new);
    hs.push_back(std::move(h_new));
  }
  return hs;
}

std::vector<Tensor> LSTMSequence::backward(const std::vector<Tensor>& d_hs,
                                           kernels::KernelRecorder* rec,
                                           const std::string& tag) {
  PIPAD_CHECK(d_hs.size() == caches_.size());
  const int T = static_cast<int>(caches_.size());
  std::vector<Tensor> dxs(T);
  Tensor dh_carry = Tensor::zeros(rows_, cell_->hidden_dim());
  Tensor dc_carry = Tensor::zeros(rows_, cell_->hidden_dim());
  for (int t = T - 1; t >= 0; --t) {
    Tensor dh = dh_carry;
    if (!d_hs[t].empty()) ops::add_inplace(dh, d_hs[t]);
    auto [dx, dh_prev, dc_prev] =
        cell_->backward(caches_[t], dh, dc_carry, rec, tag);
    dxs[t] = std::move(dx);
    dh_carry = std::move(dh_prev);
    dc_carry = std::move(dc_prev);
  }
  return dxs;
}

}  // namespace pipad::nn
