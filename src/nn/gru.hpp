// GRU cell [Cho et al. 2014] with manual backward.
//
// EvolveGCN evolves its GCN weights with a GRU (§2.1, Fig. 2b) and T-GCN
// integrates GCNs *inside* the GRU gates (Fig. 2c); both reuse this cell.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "kernels/recorder.hpp"
#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace pipad::nn {

class GRUCell {
 public:
  GRUCell() = default;
  GRUCell(int input_dim, int hidden_dim, Rng& rng);

  struct Cache {
    Tensor x, h_prev;
    Tensor xh;    ///< [x | h_prev].
    Tensor z, r;  ///< Update / reset gates.
    Tensor xrh;   ///< [x | r ⊙ h_prev].
    Tensor n;     ///< Candidate state.
  };

  /// h_new = (1 - z) ⊙ n + z ⊙ h_prev.
  Tensor forward(const Tensor& x, const Tensor& h_prev, Cache& cache,
                 kernels::KernelRecorder* rec, const std::string& tag) const;

  /// Returns (dx, dh_prev); accumulates parameter grads.
  std::pair<Tensor, Tensor> backward(const Cache& cache, const Tensor& dh,
                                     kernels::KernelRecorder* rec,
                                     const std::string& tag);

  int input_dim() const { return in_; }
  int hidden_dim() const { return hid_; }
  std::vector<Parameter*> params() {
    return {&wz_, &wr_, &wn_, &bz_, &br_, &bn_};
  }

 private:
  int in_ = 0;
  int hid_ = 0;
  Parameter wz_, wr_, wn_;  ///< Each [(in+hid) x hid].
  Parameter bz_, br_, bn_;  ///< Each [1 x hid].
};

}  // namespace pipad::nn
