#include "tensor/tanh.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

namespace pipad::ops {

namespace {
using simd::select;
using simd::splat;
using simd::v4f;
using simd::v4i;
typedef std::uint32_t v4u __attribute__((vector_size(16)));

// fdlibm's expm1f constants.
constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

// Branch thresholds on the bit pattern of |x|.
constexpr std::int32_t kTanhTiny = 0x24000000;  // 2^-55: tanh(x) = x(1+x)
constexpr std::int32_t kTanhOne = 0x3f800000;   // 1: the expm1(2|x|) form
constexpr std::int32_t kTanhSat = 0x41b00000;   // 22: tanh(x) = ±1
constexpr std::int32_t kNonFinite = 0x7f800000;
constexpr std::int32_t kExpm1Tiny = 0x33000000;  // 2^-25: expm1(x) = x
constexpr std::int32_t kHalfLn2 = 0x3eb17218;    // up to here, k = 0
constexpr std::int32_t kThreeHalvesLn2 = 0x3f851592;  // below here, k = -1

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

// 2^k * y per lane.
v4f scale(v4f y, v4i k) {
  return reinterpret_cast<v4f>(reinterpret_cast<v4u>(y) +
                               (reinterpret_cast<v4u>(k) << 23));
}

// expm1_scalar on four lanes: every branch computed, the right one kept.
v4f expm1_4(v4f x) {
  const v4i hx = reinterpret_cast<v4i>(x) & splat(0x7fffffff);
  const v4i neg = reinterpret_cast<v4i>(x) < splat(0);
  v4i k = __builtin_convertvector(
      splat(kInvLn2) * x + select(neg, splat(-0.5f), splat(0.5f)), v4i);
  // Only negative arguments lie below 1.5 ln2 (positive ones are >= 2).
  k = select(hx < splat(kThreeHalvesLn2), splat(-1), k);
  k = select(hx > splat(kHalfLn2), k, splat(0));
  const v4f t = __builtin_convertvector(k, v4f);
  const v4f hi = x - t * splat(kLn2Hi);
  const v4f lo = t * splat(kLn2Lo);
  const v4f r = hi - lo;  // == x where k == 0
  const v4f c = (hi - r) - lo;

  const v4f hfx = splat(0.5f) * r;
  const v4f hxs = r * hfx;
  const v4f q45 = splat(kQ4) + hxs * splat(kQ5);
  const v4f r1 =
      splat(1.0f) +
      hxs * (splat(kQ1) + hxs * (splat(kQ2) + hxs * (splat(kQ3) + hxs * q45)));
  const v4f tt = splat(3.0f) - r1 * hfx;
  const v4f e0 = hxs * ((r1 - tt) / (splat(6.0f) - r * tt));
  const v4f y0 = r - (r * e0 - hxs);
  const v4f e = (r * (e0 - c) - c) - hxs;
  const v4f ym1 = splat(0.5f) * (r - e) - splat(0.5f);

  const v4f two_mk = reinterpret_cast<v4f>(
      reinterpret_cast<v4u>(splat(0x7f) - k) << 23);
  const v4i wide = (k <= splat(-2)) | (k > splat(56));
  v4f y = select(wide, splat(1.0f) - (e - r),
                 select(k < splat(23), (splat(1.0f) - two_mk) - (e - r),
                        (r - (e + two_mk)) + splat(1.0f)));
  y = scale(y, k);
  y = select(wide, y - splat(1.0f), y);
  y = select(k == splat(0), y0, select(k == splat(-1), ym1, y));
  return select(hx < splat(kExpm1Tiny), x, y);
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

v4f tanh4(v4f x) {
  const v4i ix = reinterpret_cast<v4i>(x) & splat(0x7fffffff);
  const v4i sign = reinterpret_cast<v4i>(x) & splat(INT32_MIN);
  const v4f ax = reinterpret_cast<v4f>(ix);
  const v4i big = ix >= splat(kTanhOne);
  // Lanes on another path (tiny, saturated, non-finite) feed expm1 a
  // harmless -1.
  const v4i mid = (ix >= splat(kTanhTiny)) & (ix < splat(kTanhSat));
  const v4f t = expm1_4(select(
      mid, select(big, splat(2.0f) * ax, splat(-2.0f) * ax), splat(-1.0f)));
  const v4f q = select(big, splat(2.0f), -t) / (t + splat(2.0f));
  v4f z = select(big, splat(1.0f) - q, q);
  z = select(ix >= splat(kTanhSat), splat(1.0f), z);
  v4f y = reinterpret_cast<v4f>(reinterpret_cast<v4i>(z) ^ sign);
  y = select(ix < splat(kTanhTiny), x * (splat(1.0f) + x), y);
  // tanh(±inf) = 1/x ± 1 = ±1, and NaN stays NaN.
  const v4i special = ix >= splat(kNonFinite);
  const v4f inv = splat(1.0f) / select(special, x, splat(1.0f));
  return select(special,
                inv + select(sign != splat(0), splat(-1.0f), splat(1.0f)), y);
}

void tanh_n(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) simd::store4(y + i, tanh4(simd::load4(x + i)));
  for (; i < n; ++i) y[i] = tanh_scalar(x[i]);
}

}  // namespace pipad::ops
