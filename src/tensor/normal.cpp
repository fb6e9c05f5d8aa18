#include "tensor/normal.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "tensor/simd_kernels.hpp"

namespace pipad::ops {

void fill_normal(Rng& rng, float* out, std::size_t n) {
  constexpr std::size_t kChunk = 256;
  const bool wide = simd::lanes() == 8;
  float lg[kChunk];
  float cs[kChunk];
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t m = std::min(kChunk, n - i);
    for (std::size_t j = 0; j < m; ++j) {
      float u1 = rng.next_float();
      while (u1 == 0.0f) u1 = rng.next_float();  // log(0) is -inf
      lg[j] = u1;
      cs[j] = 6.28318530717958647692f * rng.next_float();
    }
    if (wide) {
      simd::detail::logf_n_8(lg, lg, m);
      simd::detail::cosf_n_8(cs, cs, m);
    } else {
      simd::detail::logf_n_4(lg, lg, m);
      simd::detail::cosf_n_4(cs, cs, m);
    }
    for (std::size_t j = 0; j < m; ++j) {
      out[i + j] = std::sqrt(-2.0f * lg[j]) * cs[j];
    }
  }
}

}  // namespace pipad::ops

namespace pipad::simd::detail {
void logf_n_4(const float* x, float* y, std::size_t n) {
  logf_span<4>(x, y, n);
}

void cosf_n_4(const float* x, float* y, std::size_t n) {
  cosf_span<4>(x, y, n);
}
}  // namespace pipad::simd::detail
