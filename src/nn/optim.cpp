#include "nn/optim.hpp"

#include <cmath>

#include "common/error.hpp"
#include "kernels/stats_builders.hpp"

namespace pipad::nn {

void Sgd::step(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) {
    float* v = p->value.data();
    const float* g = p->grad.data();
    for (std::size_t i = 0; i < p->value.size(); ++i) v[i] -= lr_ * g[i];
  }
}

void Adam::step(const std::vector<Parameter*>& params) {
  if (m_.empty()) {
    for (Parameter* p : params) {
      m_.emplace_back(p->value.rows(), p->value.cols());
      v_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
  PIPAD_CHECK_MSG(m_.size() == params.size(),
                  "Adam: parameter list changed between steps");
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    PIPAD_CHECK(m_[pi].same_shape(p->value));
    float* val = p->value.data();
    const float* g = p->grad.data();
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g[i];
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      val[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::record_step(const std::vector<Parameter*>& params,
                       kernels::KernelRecorder& rec) {
  for (const Parameter* p : params) {
    rec.record("ew:optim", kernels::elementwise_stats(p->value.size(), 3, 8));
  }
}

}  // namespace pipad::nn
