#include "tensor/tanh.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/simd_kernels.hpp"

namespace pipad::ops {

namespace {
// The fdlibm constants and thresholds are shared with the vector kernel.
using namespace simd;

std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

float from_bits(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

// 2^k * y, by adding k to y's exponent field (y is normal and stays so).
float scale(float y, int k) {
  return from_bits(bits(y) + (static_cast<std::uint32_t>(k) << 23));
}

// fdlibm's expm1f for the arguments tanh passes: 2|t| in [2, 44) or -2|t|
// in (-2, -2^-54].
float expm1_scalar(float x) {
  const auto hx = static_cast<std::int32_t>(bits(x) & 0x7fffffffu);
  const bool neg = std::signbit(x);
  if (hx < kExpm1Tiny) return x;
  // x = k ln2 + r with |r| <= 0.5 ln2, and c the rounding error of r.
  int k = 0;
  float c = 0.0f;
  if (hx > kHalfLn2) {
    k = neg && hx < kThreeHalvesLn2
            ? -1
            : static_cast<int>(kInvLn2 * x + (neg ? -0.5f : 0.5f));
    const auto t = static_cast<float>(k);
    const float hi = x - t * kLn2Hi;
    const float lo = t * kLn2Lo;
    x = hi - lo;
    c = (hi - x) - lo;
  }
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return scale(1.0f - (e - x), k) - 1.0f;
  const float two_mk = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);
  if (k < 23) return scale((1.0f - two_mk) - (e - x), k);
  return scale((x - (e + two_mk)) + 1.0f, k);
}
}  // namespace

float tanh_scalar(float x) {
  const auto ix = static_cast<std::int32_t>(bits(x) & 0x7fffffffu);
  const bool neg = std::signbit(x);
  if (ix >= kNonFinite) return neg ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  // fdlibm returns ±0 itself first; x * (1 + x) gives the same bits.
  if (ix < kTanhTiny) return x * (1.0f + x);
  float z = 1.0f;
  if (ix < kTanhSat) {
    if (ix >= kTanhOne) {
      z = 1.0f - 2.0f / (expm1_scalar(2.0f * std::fabs(x)) + 2.0f);
    } else {
      const float t = expm1_scalar(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  }
  return neg ? -z : z;
}

void tanh_n(const float* x, float* y, std::size_t n) {
  if (simd::lanes() == 8) {
    simd::detail::tanh_n_8(x, y, n);
  } else {
    simd::detail::tanh_n_4(x, y, n);
  }
}

}  // namespace pipad::ops

namespace pipad::simd::detail {
void tanh_n_4(const float* x, float* y, std::size_t n) {
  tanh_span<4>(x, y, n);
}
}  // namespace pipad::simd::detail
