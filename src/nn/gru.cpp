#include "nn/gru.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/stats_builders.hpp"
#include "tensor/ops.hpp"

namespace pipad::nn {

namespace {
void record(kernels::KernelRecorder* rec, const std::string& name,
            const gpusim::KernelStats& s) {
  if (rec != nullptr) rec->record(name, s);
}
}  // namespace

GRUCell::GRUCell(int input_dim, int hidden_dim, Rng& rng)
    : in_(input_dim),
      hid_(hidden_dim),
      wz_(Parameter::glorot(input_dim + hidden_dim, hidden_dim, rng)),
      wr_(Parameter::glorot(input_dim + hidden_dim, hidden_dim, rng)),
      wn_(Parameter::glorot(input_dim + hidden_dim, hidden_dim, rng)),
      bz_(Parameter::zeros(1, hidden_dim)),
      br_(Parameter::zeros(1, hidden_dim)),
      bn_(Parameter::zeros(1, hidden_dim)) {}

Tensor GRUCell::forward(const Tensor& x, const Tensor& h_prev, Cache& cache,
                        kernels::KernelRecorder* rec,
                        const std::string& tag) const {
  PIPAD_CHECK_MSG(x.cols() == in_ && h_prev.cols() == hid_,
                  "GRU dim mismatch: x " << x.shape_str() << " h "
                                         << h_prev.shape_str());
  const int rows = x.rows();
  cache.x = x;
  cache.h_prev = h_prev;
  cache.xh = ops::concat_cols(x, h_prev);

  const Tensor yz = ops::matmul(cache.xh, wz_.value);
  const Tensor yr = ops::matmul(cache.xh, wr_.value);
  const float* bz = bz_.value.row(0);
  const float* br = br_.value.row(0);
  cache.z = Tensor(rows, hid_);
  cache.r = Tensor(rows, hid_);
  cache.xrh = Tensor(rows, in_ + hid_);
  // z = σ(xh W_z + b_z), r = σ(xh W_r + b_r), xrh = [x | r ⊙ h_prev].
  ops::par_rows(rows, cache.xrh.size(), [&](int i) {
    const float *pyz = yz.row(i), *pyr = yr.row(i), *ph = h_prev.row(i);
    float *pz = cache.z.row(i), *pr = cache.r.row(i), *pxrh = cache.xrh.row(i);
    std::copy(x.row(i), x.row(i) + in_, pxrh);
    for (int c = 0; c < hid_; ++c) {
      pz[c] = ops::sigmoid(pyz[c] + bz[c]);
      pr[c] = ops::sigmoid(pyr[c] + br[c]);
      pxrh[in_ + c] = pr[c] * ph[c];
    }
  });
  record(rec, "gemm:" + tag + ".zr",
         kernels::gemm_stats(x.rows(), in_ + hid_, 2 * hid_));

  const Tensor yn = ops::matmul(cache.xrh, wn_.value);
  const float* bn = bn_.value.row(0);
  cache.n = Tensor(rows, hid_);
  Tensor h(rows, hid_);
  // n = tanh(xrh W_n + b_n), h = (1 - z) ⊙ n + z ⊙ h_prev.
  ops::par_rows(rows, h.size(), [&](int i) {
    const float *pyn = yn.row(i), *pz = cache.z.row(i), *ph = h_prev.row(i);
    float *pn = cache.n.row(i), *pout = h.row(i);
    for (int c = 0; c < hid_; ++c) {
      pn[c] = std::tanh(pyn[c] + bn[c]);
      pout[c] = (1.0f - pz[c]) * pn[c] + pz[c] * ph[c];
    }
  });
  record(rec, "gemm:" + tag + ".n",
         kernels::gemm_stats(x.rows(), in_ + hid_, hid_));
  record(rec, "ew:" + tag + ".act",
         kernels::elementwise_stats(3 * h.size(), 1, 5));
  return h;
}

std::pair<Tensor, Tensor> GRUCell::backward(const Cache& cache,
                                            const Tensor& dh,
                                            kernels::KernelRecorder* rec,
                                            const std::string& tag) {
  const int rows = dh.rows();
  Tensor dh_prev(rows, hid_);
  Tensor dan(rows, hid_);
  Tensor daz(rows, hid_);
  // h = (1-z)*n + z*h_prev: dh_prev = dh*z; through the candidate's tanh,
  // dan = (dh*(1-z))*(1-n^2); through z's sigmoid,
  // daz = ((dh*(h_prev-n))*z)*(1-z).
  {
    const float *pdh = dh.data(), *pz = cache.z.data(), *pn = cache.n.data();
    const float* ph = cache.h_prev.data();
    float *pdhp = dh_prev.data(), *pdan = dan.data(), *pdaz = daz.data();
    ops::par_elems(dh.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        pdhp[i] = pdh[i] * pz[i];
        pdan[i] = ops::tanh_grad(pdh[i] * (1.0f - pz[i]), pn[i]);
        pdaz[i] = ops::sigmoid_grad(pdh[i] * (ph[i] - pn[i]), pz[i]);
      }
    });
  }

  // Candidate branch.
  ops::gemm(cache.xrh, dan, wn_.grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(bn_.grad, ops::bias_grad(dan));
  const Tensor dxrh = ops::matmul(dan, wn_.value, false, true);
  // dxrh = [dx_n | drh] with rh = r ⊙ h_prev: dar = ((drh*h_prev)*r)*(1-r).
  Tensor dar(rows, hid_);
  ops::par_rows(rows, dh.size(), [&](int i) {
    const float *pdrh = dxrh.row(i) + in_, *pr = cache.r.row(i);
    const float* ph = cache.h_prev.row(i);
    float *pdar = dar.row(i), *pdhp = dh_prev.row(i);
    for (int c = 0; c < hid_; ++c) {
      pdar[c] = ops::sigmoid_grad(pdrh[c] * ph[c], pr[c]);
      pdhp[c] += pdrh[c] * pr[c];
    }
  });

  // Gate branches.
  ops::gemm(cache.xh, daz, wz_.grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(bz_.grad, ops::bias_grad(daz));
  ops::gemm(cache.xh, dar, wr_.grad, true, false, 1.0f, 1.0f);
  ops::add_inplace(br_.grad, ops::bias_grad(dar));
  const Tensor dxh_z = ops::matmul(daz, wz_.value, false, true);
  const Tensor dxh_r = ops::matmul(dar, wr_.value, false, true);

  // [dx | dh_prev] += dxh_z, then += dxh_r.
  Tensor dx(rows, in_);
  ops::par_rows(rows, dxrh.size(), [&](int i) {
    const float *pn = dxrh.row(i), *pz = dxh_z.row(i), *pr = dxh_r.row(i);
    float *pdx = dx.row(i), *pdhp = dh_prev.row(i);
    for (int c = 0; c < in_; ++c) pdx[c] = (pn[c] + pz[c]) + pr[c];
    for (int c = 0; c < hid_; ++c) {
      pdhp[c] = (pdhp[c] + pz[in_ + c]) + pr[in_ + c];
    }
  });

  record(rec, "gemm:" + tag + ".bwd",
         kernels::gemm_stats(cache.xh.cols(), cache.xh.rows(), 3 * hid_));
  record(rec, "ew:" + tag + ".act.bwd",
         kernels::elementwise_stats(6 * dh.size(), 2, 6));
  return {std::move(dx), std::move(dh_prev)};
}

}  // namespace pipad::nn
