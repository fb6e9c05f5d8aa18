// The exact kernels behind ops::gemm, ops::bias_grad, ops::tanh_n,
// ops::fill_normal and kernels::agg_sliced, written once for vectors of
// W = 4 or 8 lanes.
//
// Each kernel body below is a template over W, and every element goes
// through the same IEEE operations in the same order at either width, so
// the two widths give the same bits (tensor/simd.hpp). The W = 4 entry
// points are compiled for the x86-64 baseline next to their callers
// (ops.cpp, tanh.cpp, normal.cpp, kernels/aggregate.cpp); the W = 8 ones
// are compiled for AVX2 in tensor/simd_avx2.cpp and may run only when
// lanes() == 8. Callers pick one width per call from lanes(), which reads
// the host's CPU features once per process.
//
// The bodies have internal linkage, like simd.hpp's helpers: each
// translation unit that includes this header compiles its own copies for
// its own target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/simd.hpp"
#include "tensor/tanh.hpp"

namespace pipad::simd {

/// One GEMM, C = alpha * op(A) * B + beta * C, as the row kernels see it:
/// row i of op(A) holds a[i * a_row + kk * a_k] for kk in [0, k), B is a
/// row-major k x n matrix and C a row-major matrix of n columns. The sums
/// follow the contract in tensor/ops.hpp.
struct GemmArgs {
  const float* a;
  std::size_t a_row;
  std::size_t a_k;
  int k;
  float alpha;
  const float* b;
  int n;
  float* c;
  float beta;
};

/// One agg_sliced call (kernels/aggregate.hpp): slice s adds the x rows
/// col[i], i in [slice_off[s], slice_off[s + 1]), to out row row_idx[s].
/// x and out rows hold `width` floats. With parts > 0, stripe_w[p] holds
/// one weight per edge for the p-th stripe of width / parts columns.
struct AggArgs {
  const int* row_idx;
  const int* slice_off;
  const int* col;
  const float* x;
  float* out;
  int width;
  const float* const* stripe_w;
  int parts;
};

/// 8 when the host runs AVX2, else 4; read once per process.
int lanes();

namespace detail {
/// C rows [lo, hi). When n == 1 a vector holds W rows, so a caller that
/// splits the rows should cut at multiples of the width.
void gemm_rows_4(const GemmArgs& g, std::size_t lo, std::size_t hi);
void gemm_rows_8(const GemmArgs& g, std::size_t lo, std::size_t hi);
/// out[j] = sum of grad[r][j] over the rows, for columns j in [lo, hi).
void bias_grad_4(const float* grad, int rows, int cols, std::size_t lo,
                 std::size_t hi, float* out);
void bias_grad_8(const float* grad, int rows, int cols, std::size_t lo,
                 std::size_t hi, float* out);
/// y[i] = tanh(x[i]) for i in [0, n); y may equal x.
void tanh_n_4(const float* x, float* y, std::size_t n);
void tanh_n_8(const float* x, float* y, std::size_t n);
/// y[i] = logf(x[i]) for positive normal x[i] (tensor/normal.hpp); y may
/// equal x.
void logf_n_4(const float* x, float* y, std::size_t n);
void logf_n_8(const float* x, float* y, std::size_t n);
/// y[i] = cosf(x[i]) for |x[i]| < 120 (tensor/normal.hpp); y may equal x.
void cosf_n_4(const float* x, float* y, std::size_t n);
void cosf_n_8(const float* x, float* y, std::size_t n);
/// Slices [lo, hi).
void agg_slices_4(const AggArgs& g, std::size_t lo, std::size_t hi);
void agg_slices_8(const AggArgs& g, std::size_t lo, std::size_t hi);
}  // namespace detail

namespace {

// ------------------------------------------------------------------ GEMM

// Columns of one C row kept in registers across the whole k loop.
constexpr int kStrip = 32;

// N columns of one C row in vectors of W lanes (W == 1: scalar, N == 1):
// c[0, N) = beta * c[0, N), then for kk ascending
// c[j] += (alpha * a[kk * a_k]) * b[kk * ldb + j], skipping every kk whose
// alpha * a[kk * a_k] is exactly zero. That is the in-order scalar loop's
// order of operations for every element, so the result is bit-identical
// to it.
template <int W, int N>
inline void gemm_strip(const float* a, std::size_t a_k, int k, float alpha,
                       const float* b, std::size_t ldb, float* c, float beta) {
  if constexpr (W > 1) {
    static_assert(N % W == 0);
    constexpr int kV = N / W;
    vec<W> acc[kV];
    for (int q = 0; q < kV; ++q) {
      acc[q] = beta == 0.0f ? vec<W>{} : load<W>(c + W * q);
      if (beta != 0.0f && beta != 1.0f) acc[q] *= splat<W>(beta);
    }
    for (int kk = 0; kk < k; ++kk) {
      const float av = alpha * a[kk * a_k];
      if (av == 0.0f) continue;
      const vec<W> avv = splat<W>(av);
      const float* brow = b + kk * ldb;
      for (int q = 0; q < kV; ++q) acc[q] += avv * load<W>(brow + W * q);
    }
    for (int q = 0; q < kV; ++q) store(c + W * q, acc[q]);
  } else {
    static_assert(N == 1);
    float acc = beta == 0.0f ? 0.0f : c[0];
    if (beta != 0.0f && beta != 1.0f) acc *= beta;
    for (int kk = 0; kk < k; ++kk) {
      const float av = alpha * a[kk * a_k];
      if (av == 0.0f) continue;
      acc += av * b[kk * ldb];
    }
    c[0] = acc;
  }
}

// One C row of n columns: full 32-column strips, then the tail in strips of
// 16 and 8 at W lanes, then 4 and 1. Strip widths never change an element's
// operations.
template <int W>
void gemm_row(const GemmArgs& g, const float* a, float* c) {
  const int n = g.n;
  const auto ldb = static_cast<std::size_t>(n);
  int j = 0;
  for (; j + kStrip <= n; j += kStrip) {
    gemm_strip<W, kStrip>(a, g.a_k, g.k, g.alpha, g.b + j, ldb, c + j, g.beta);
  }
  if (n - j >= 16) {
    gemm_strip<W, 16>(a, g.a_k, g.k, g.alpha, g.b + j, ldb, c + j, g.beta);
    j += 16;
  }
  if (n - j >= 8) {
    gemm_strip<W, 8>(a, g.a_k, g.k, g.alpha, g.b + j, ldb, c + j, g.beta);
    j += 8;
  }
  if (n - j >= 4) {
    gemm_strip<4, 4>(a, g.a_k, g.k, g.alpha, g.b + j, ldb, c + j, g.beta);
    j += 4;
  }
  for (; j < n; ++j) {
    gemm_strip<1, 1>(a, g.a_k, g.k, g.alpha, g.b + j, ldb, c + j, g.beta);
  }
}

// A one-column C (n == 1): W rows at once, lane r holding row r's
// accumulator, where row r reads op(A) at a[r * a_row + kk * a_k]. Each lane
// runs gemm_strip<1, 1>'s loop; a lane whose alpha * a is exactly zero keeps
// its accumulator (a blend), as the scalar loop's skip does.
template <int W>
void gemm_col(const GemmArgs& g, const float* a, float* c) {
  vec<W> acc = g.beta == 0.0f ? vec<W>{} : load<W>(c);
  if (g.beta != 0.0f && g.beta != 1.0f) acc *= splat<W>(g.beta);
  const vec<W> alphav = splat<W>(g.alpha);
  for (int kk = 0; kk < g.k; ++kk) {
    const float* ak = a + kk * g.a_k;
    vec<W> ar{};
    if (g.a_row == 1) {
      ar = load<W>(ak);
    } else {
      for (int l = 0; l < W; ++l) ar[l] = ak[l * g.a_row];
    }
    const vec<W> av = alphav * ar;
    acc = select(av == splat<W>(0.0f), acc, acc + av * splat<W>(g.b[kk]));
  }
  store(c, acc);
}

template <int W>
void gemm_rows(const GemmArgs& g, std::size_t lo, std::size_t hi) {
  if (g.n != 1) {
    for (std::size_t i = lo; i < hi; ++i) {
      gemm_row<W>(g, g.a + i * g.a_row,
                  g.c + i * static_cast<std::size_t>(g.n));
    }
    return;
  }
  std::size_t i = lo;
  for (; i + W <= hi; i += W) gemm_col<W>(g, g.a + i * g.a_row, g.c + i);
  if constexpr (W > 4) {
    if (i + 4 <= hi) {
      gemm_col<4>(g, g.a + i * g.a_row, g.c + i);
      i += 4;
    }
  }
  for (; i < hi; ++i) {
    gemm_strip<1, 1>(g.a + i * g.a_row, g.a_k, g.k, g.alpha, g.b, 1, g.c + i,
                     g.beta);
  }
}

// Column sums, kStrip columns at a time: a full strip stays in W-lane
// registers across the rows, a shorter one in a local array. Every column
// sums its rows in ascending order from +0 either way.
template <int W>
void bias_grad_cols(const float* grad, int rows, int cols, std::size_t lo,
                    std::size_t hi, float* out) {
  const auto ld = static_cast<std::size_t>(cols);
  for (std::size_t j0 = lo; j0 < hi; j0 += kStrip) {
    if (hi - j0 >= kStrip) {
      constexpr int kV = kStrip / W;
      vec<W> acc[kV] = {};
      for (int r = 0; r < rows; ++r) {
        const float* row = grad + r * ld + j0;
        for (int q = 0; q < kV; ++q) acc[q] += load<W>(row + W * q);
      }
      for (int q = 0; q < kV; ++q) store(out + j0 + W * q, acc[q]);
    } else {
      const std::size_t w = hi - j0;
      float acc[kStrip] = {};
      for (int r = 0; r < rows; ++r) {
        const float* row = grad + r * ld + j0;
        for (std::size_t c = 0; c < w; ++c) acc[c] += row[c];
      }
      for (std::size_t c = 0; c < w; ++c) out[j0 + c] = acc[c];
    }
  }
}

// ------------------------------------------------------------------ tanh
//
// A port of the fdlibm tanhf/expm1f pair that glibc ships (tensor/tanh.hpp
// has the scalar form and the derivation). The vector form computes every
// branch in every lane and blends the results with masks, so it does the
// same IEEE operations on each element as the scalar port.

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

// 2^k * y per lane.
template <int W>
vec<W> scale_w(vec<W> y, ivec<W> k) {
  return reinterpret_cast<vec<W>>(reinterpret_cast<uvec<W>>(y) +
                                  (reinterpret_cast<uvec<W>>(k) << 23));
}

// The scalar expm1 on W lanes: every branch computed, the right one kept.
template <int W>
vec<W> expm1_w(vec<W> x) {
  const ivec<W> hx = reinterpret_cast<ivec<W>>(x) & splat<W>(0x7fffffff);
  const ivec<W> neg = reinterpret_cast<ivec<W>>(x) < splat<W>(0);
  ivec<W> k = __builtin_convertvector(
      splat<W>(kInvLn2) * x + select(neg, splat<W>(-0.5f), splat<W>(0.5f)),
      ivec<W>);
  // Only negative arguments lie below 1.5 ln2 (positive ones are >= 2).
  k = select(hx < splat<W>(kThreeHalvesLn2), splat<W>(-1), k);
  k = select(hx > splat<W>(kHalfLn2), k, splat<W>(0));
  const vec<W> t = __builtin_convertvector(k, vec<W>);
  const vec<W> hi = x - t * splat<W>(kLn2Hi);
  const vec<W> lo = t * splat<W>(kLn2Lo);
  const vec<W> r = hi - lo;  // == x where k == 0
  const vec<W> c = (hi - r) - lo;

  const vec<W> hfx = splat<W>(0.5f) * r;
  const vec<W> hxs = r * hfx;
  const vec<W> q45 = splat<W>(kQ4) + hxs * splat<W>(kQ5);
  const vec<W> r1 =
      splat<W>(1.0f) +
      hxs * (splat<W>(kQ1) +
             hxs * (splat<W>(kQ2) + hxs * (splat<W>(kQ3) + hxs * q45)));
  const vec<W> tt = splat<W>(3.0f) - r1 * hfx;
  const vec<W> e0 = hxs * ((r1 - tt) / (splat<W>(6.0f) - r * tt));
  const vec<W> y0 = r - (r * e0 - hxs);
  const vec<W> e = (r * (e0 - c) - c) - hxs;
  const vec<W> ym1 = splat<W>(0.5f) * (r - e) - splat<W>(0.5f);

  const vec<W> two_mk = reinterpret_cast<vec<W>>(
      reinterpret_cast<uvec<W>>(splat<W>(0x7f) - k) << 23);
  const ivec<W> wide = (k <= splat<W>(-2)) | (k > splat<W>(56));
  const vec<W> below23 = (splat<W>(1.0f) - two_mk) - (e - r);
  const vec<W> above23 = (r - (e + two_mk)) + splat<W>(1.0f);
  vec<W> y = select(wide, splat<W>(1.0f) - (e - r),
                    select(k < splat<W>(23), below23, above23));
  y = scale_w<W>(y, k);
  y = select(wide, y - splat<W>(1.0f), y);
  y = select(k == splat<W>(0), y0, select(k == splat<W>(-1), ym1, y));
  return select(hx < splat<W>(kExpm1Tiny), x, y);
}

// tanh of W lanes; lane i equals ops::tanh_scalar(x[i]) bit for bit.
template <int W>
vec<W> tanh_w(vec<W> x) {
  const ivec<W> ix = reinterpret_cast<ivec<W>>(x) & splat<W>(0x7fffffff);
  const ivec<W> sign = reinterpret_cast<ivec<W>>(x) & splat<W>(INT32_MIN);
  const vec<W> ax = reinterpret_cast<vec<W>>(ix);
  const ivec<W> big = ix >= splat<W>(kTanhOne);
  // Lanes on another path (tiny, saturated, non-finite) feed expm1 a
  // harmless -1.
  const ivec<W> mid = (ix >= splat<W>(kTanhTiny)) & (ix < splat<W>(kTanhSat));
  const vec<W> t = expm1_w<W>(
      select(mid, select(big, splat<W>(2.0f) * ax, splat<W>(-2.0f) * ax),
             splat<W>(-1.0f)));
  const vec<W> q = select(big, splat<W>(2.0f), -t) / (t + splat<W>(2.0f));
  vec<W> z = select(big, splat<W>(1.0f) - q, q);
  z = select(ix >= splat<W>(kTanhSat), splat<W>(1.0f), z);
  vec<W> y = reinterpret_cast<vec<W>>(reinterpret_cast<ivec<W>>(z) ^ sign);
  y = select(ix < splat<W>(kTanhTiny), x * (splat<W>(1.0f) + x), y);
  // tanh(±inf) = 1/x ± 1 = ±1, and NaN stays NaN.
  const ivec<W> special = ix >= splat<W>(kNonFinite);
  const vec<W> inv = splat<W>(1.0f) / select(special, x, splat<W>(1.0f));
  return select(
      special,
      inv + select(sign != splat<W>(0), splat<W>(-1.0f), splat<W>(1.0f)), y);
}

// W elements at a time, then one group of 4 (W = 8), then scalar.
template <int W>
void tanh_span(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) store(y + i, tanh_w<W>(load<W>(x + i)));
  if constexpr (W > 4) {
    if (i + 4 <= n) {
      store(y + i, tanh_w<4>(load<4>(x + i)));
      i += 4;
    }
  }
  for (; i < n; ++i) y[i] = ops::tanh_scalar(x[i]);
}

// ------------------------------------------------------------ logf, cosf
//
// Ports of glibc's logf and cosf (the ARM optimized-routines algorithms it
// ships from 2.28 on) for the arguments Box-Muller passes them:
// tensor/normal.hpp has the contract and where the constants come from.
// Both work in double as glibc does, on two halves of W / 2 double lanes,
// and round once to float at the end.

// glibc's __logf_data: {1/c, log(c)} for the 16 subintervals of
// [kLogfOff, 2 kLogfOff) that z falls in, then ln 2 and the log1p
// polynomial A0..A2.
constexpr double kLogfTab[16][2] = {
    {0x1.661ec79f8f3bep+0, -0x1.57bf7808caadep-2},
    {0x1.571ed4aaf883dp+0, -0x1.2bef0a7c06ddbp-2},
    {0x1.49539f0f010bp+0, -0x1.01eae7f513a67p-2},
    {0x1.3c995b0b80385p+0, -0x1.b31d8a68224e9p-3},
    {0x1.30d190c8864a5p+0, -0x1.6574f0ac07758p-3},
    {0x1.25e227b0b8eap+0, -0x1.1aa2bc79c81p-3},
    {0x1.1bb4a4a1a343fp+0, -0x1.a4e76ce8c0e5ep-4},
    {0x1.12358f08ae5bap+0, -0x1.1973c5a611cccp-4},
    {0x1.0953f419900a7p+0, -0x1.252f438e10c1ep-5},
    {0x1p+0, 0x0p+0},
    {0x1.e608cfd9a47acp-1, 0x1.aa5aa5df25984p-5},
    {0x1.ca4b31f026aap-1, 0x1.c5e53aa362eb4p-4},
    {0x1.b2036576afce6p-1, 0x1.526e57720db08p-3},
    {0x1.9c2d163a1aa2dp-1, 0x1.bc2860d22477p-3},
    {0x1.886e6037841edp-1, 0x1.1058bc8a07ee1p-2},
    {0x1.767dcf5534862p-1, 0x1.4043057b6ee09p-2},
};
constexpr double kLogfLn2 = 0x1.62e42fefa39efp-1;
constexpr double kLogfA0 = -0x1.00ea348b88334p-2;
constexpr double kLogfA1 = 0x1.5575b0be00b6ap-2;
constexpr double kLogfA2 = -0x1.ffffef20a4123p-2;
constexpr std::uint32_t kLogfOff = 0x3f330000;

// Half H of logf's main path: log(x) = log1p(z / c - 1) + log(c) + k ln2,
// where x = 2^k z, z lies in subinterval i and c is near its centre.
template <int H, int W>
dvec<W> logf_half(vec<W> z, ivec<W> k, ivec<W> i) {
  constexpr int D = W / 2;
  dvec<W> invc;
  dvec<W> logc;
  for (int l = 0; l < D; ++l) {
    invc[l] = kLogfTab[i[H * D + l]][0];
    logc[l] = kLogfTab[i[H * D + l]][1];
  }
  const dvec<W> r = widen<H, W>(z) * invc - splat<W>(1.0);
  const dvec<W> y0 = logc + widen<H, W>(k) * splat<W>(kLogfLn2);
  const dvec<W> r2 = r * r;
  dvec<W> y = splat<W>(kLogfA1) * r + splat<W>(kLogfA2);
  y = splat<W>(kLogfA0) * r2 + y;
  return y * r2 + (y0 + r);
}

// logf of W lanes of positive normal floats. glibc's other paths (zero,
// subnormal, negative, infinite and NaN inputs) are not ported, and at
// x = 1 the main path gives +0 as glibc's early return does.
template <int W>
vec<W> logf_w(vec<W> x) {
  const uvec<W> ix = reinterpret_cast<uvec<W>>(x);
  const uvec<W> tmp = ix - kLogfOff;
  const ivec<W> i = reinterpret_cast<ivec<W>>((tmp >> 19) & 15u);
  const ivec<W> k = reinterpret_cast<ivec<W>>(tmp) >> 23;
  const vec<W> z = reinterpret_cast<vec<W>>(ix - (tmp & 0xff800000u));
  return narrow<W>(logf_half<0, W>(z, k, i), logf_half<1, W>(z, k, i));
}

// glibc's __sincosf_table[0]: 2/pi scaled by 2^24, pi/2, and the cosine
// (c0..c4) and sine (s1..s3) polynomials on [-pi/4, pi/4].
constexpr double kHpiInv = 0x1.45f306dc9c883p+23;
constexpr double kHpi = 0x1.921fb54442d18p+0;
constexpr double kCosC0 = 0x1p+0;
constexpr double kCosC1 = -0x1.ffffffd0c621cp-2;
constexpr double kCosC2 = 0x1.55553e1068f19p-5;
constexpr double kCosC3 = -0x1.6c087e89a359dp-10;
constexpr double kCosC4 = 0x1.99343027bf8c3p-16;
constexpr double kSinS1 = -0x1.555545995a603p-3;
constexpr double kSinS2 = 0x1.1107605230bc4p-7;
constexpr double kSinS3 = -0x1.994eb3774cf24p-13;
// Below 2^-12 (on the top 12 bits of |y|) cosf returns 1.
constexpr std::int32_t kCosfTiny = 0x398;

// glibc's sinf_poly, cosine branch, on the reduced argument x.
template <int W>
dvec<W> cos_poly(dvec<W> x) {
  const dvec<W> x2 = x * x;
  const dvec<W> x4 = x2 * x2;
  const dvec<W> c2 = splat<W>(kCosC3) + x2 * splat<W>(kCosC4);
  const dvec<W> c1 = splat<W>(kCosC0) + x2 * splat<W>(kCosC1);
  const dvec<W> x6 = x4 * x2;
  const dvec<W> c = c1 + x4 * splat<W>(kCosC2);
  return c + x6 * c2;
}

// glibc's sinf_poly, sine branch.
template <int W>
dvec<W> sin_poly(dvec<W> x) {
  const dvec<W> x2 = x * x;
  const dvec<W> x3 = x * x2;
  const dvec<W> s1 = splat<W>(kSinS2) + x2 * splat<W>(kSinS3);
  const dvec<W> x7 = x3 * x2;
  const dvec<W> s = x + x3 * splat<W>(kSinS1);
  return s + x7 * s1;
}

// cosf of W lanes with |y| < 120. glibc reduces x = y - n pi/2 (its
// reduce_fast) and evaluates the cosine polynomial for even n, the sine
// polynomial for odd n, negated in quadrants 1 and 2: there it multiplies
// x by sign[n & 3] = -1 (sine) or takes __sincosf_table[1], whose cosine
// coefficients are table [0]'s negated (cosine). Both polynomials map -x,
// or negated coefficients, to exactly the negated result, so negating the
// float result gives the same bits. Every lane computes both polynomials
// and keeps one. Below |y| = 0.75 glibc skips the reduction, which then
// has n = 0 and leaves x unchanged; below 2^-12 it returns 1.
template <int W>
vec<W> cosf_w(vec<W> y) {
  const ivec<W> top = (reinterpret_cast<ivec<W>>(y) >> 20) & splat<W>(0x7ff);
  const dvec<W> x0 = widen<0, W>(y);
  const dvec<W> x1 = widen<1, W>(y);
  // The quadrant ends up in bits 24..31 of y * 2/pi * 2^24.
  const ivec<W> n = (truncate<W>(x0 * splat<W>(kHpiInv),
                                 x1 * splat<W>(kHpiInv)) +
                     splat<W>(0x800000)) >>
                    24;
  const dvec<W> r0 = x0 - widen<0, W>(n) * splat<W>(kHpi);
  const dvec<W> r1 = x1 - widen<1, W>(n) * splat<W>(kHpi);
  const vec<W> c = narrow<W>(cos_poly<W>(r0), cos_poly<W>(r1));
  const vec<W> s = narrow<W>(sin_poly<W>(r0), sin_poly<W>(r1));
  const vec<W> v = select((n & splat<W>(1)) != splat<W>(0), s, c);
  const ivec<W> flip = select(((n + splat<W>(1)) & splat<W>(2)) != splat<W>(0),
                              splat<W>(INT32_MIN), splat<W>(0));
  return select(top < splat<W>(kCosfTiny), splat<W>(1.0f),
                reinterpret_cast<vec<W>>(reinterpret_cast<ivec<W>>(v) ^ flip));
}

// y[i] = f(x[i]) for i in [0, n): W lanes at a time, then one group of 4
// (W = 8), then the last n % 4 elements in a group of 4 padded with `pad`.
template <int W, typename F>
void map_span(F f, const float* x, float* y, std::size_t n, float pad) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) store(y + i, f(load<W>(x + i)));
  if constexpr (W > 4) {
    if (i + 4 <= n) {
      store(y + i, f(load<4>(x + i)));
      i += 4;
    }
  }
  if (i < n) {
    float buf[4] = {pad, pad, pad, pad};
    std::memcpy(buf, x + i, (n - i) * sizeof(float));
    store(buf, f(load<4>(buf)));
    std::memcpy(y + i, buf, (n - i) * sizeof(float));
  }
}

template <int W>
void logf_span(const float* x, float* y, std::size_t n) {
  map_span<W>([](auto v) { return logf_w<sizeof(v) / sizeof(float)>(v); }, x,
              y, n, 1.0f);
}

template <int W>
void cosf_span(const float* x, float* y, std::size_t n) {
  map_span<W>([](auto v) { return cosf_w<sizeof(v) / sizeof(float)>(v); }, x,
              y, n, 0.0f);
}

// ------------------------------------------------------------ agg_sliced

// N columns of one destination row over one slice, in vectors of W lanes
// (W == 1: scalar): the strip is loaded from `out`, then edges i in
// [lo, hi) add x[col[i]][0, N) — scaled by w[i] when kWeighted — in
// ascending i, and the strip is stored back. `x` and `out` point at the
// strip's first column; ldx is x's row stride.
template <int W, int N, bool kWeighted>
inline void slice_strip(const int* col, int lo, int hi, const float* w,
                        const float* x, std::size_t ldx, float* out) {
  if constexpr (W > 1) {
    static_assert(N % W == 0);
    constexpr int kV = N / W;
    vec<W> acc[kV];
    for (int q = 0; q < kV; ++q) acc[q] = load<W>(out + W * q);
    for (int i = lo; i < hi; ++i) {
      const float* xr = x + static_cast<std::size_t>(col[i]) * ldx;
      if constexpr (kWeighted) {
        const vec<W> wv = splat<W>(w[i]);
        for (int q = 0; q < kV; ++q) acc[q] += wv * load<W>(xr + W * q);
      } else {
        for (int q = 0; q < kV; ++q) acc[q] += load<W>(xr + W * q);
      }
    }
    for (int q = 0; q < kV; ++q) store(out + W * q, acc[q]);
  } else {
    float acc[N];
    for (int d = 0; d < N; ++d) acc[d] = out[d];
    for (int i = lo; i < hi; ++i) {
      const float* xr = x + static_cast<std::size_t>(col[i]) * ldx;
      for (int d = 0; d < N; ++d) {
        if constexpr (kWeighted) {
          acc[d] += w[i] * xr[d];
        } else {
          acc[d] += xr[d];
        }
      }
    }
    for (int d = 0; d < N; ++d) out[d] = acc[d];
  }
}

// Columns [0, width) of one destination row over one slice, in strips of
// 16, then one each of 8 (at W lanes), 4, 2 and 1 for the tail. Strip
// widths never change an element's operations.
template <int W, bool kWeighted>
void slice_cols(const int* col, int lo, int hi, const float* w,
                const float* x, std::size_t ldx, float* out, int width) {
  int c = 0;
  for (; c + 16 <= width; c += 16) {
    slice_strip<W, 16, kWeighted>(col, lo, hi, w, x + c, ldx, out + c);
  }
  if (width - c >= 8) {
    slice_strip<W, 8, kWeighted>(col, lo, hi, w, x + c, ldx, out + c);
    c += 8;
  }
  if (width - c >= 4) {
    slice_strip<4, 4, kWeighted>(col, lo, hi, w, x + c, ldx, out + c);
    c += 4;
  }
  if (width - c >= 2) {
    slice_strip<1, 2, kWeighted>(col, lo, hi, w, x + c, ldx, out + c);
    c += 2;
  }
  if (width - c >= 1) {
    slice_strip<1, 1, kWeighted>(col, lo, hi, w, x + c, ldx, out + c);
  }
}

template <int W>
void agg_slices(const AggArgs& g, std::size_t lo, std::size_t hi) {
  const auto ld = static_cast<std::size_t>(g.width);
  const int fpp = g.parts > 0 ? g.width / g.parts : 0;
  for (std::size_t sl = lo; sl < hi; ++sl) {
    float* orow = g.out + static_cast<std::size_t>(g.row_idx[sl]) * ld;
    const int b = g.slice_off[sl];
    const int e = g.slice_off[sl + 1];
    if (g.parts == 0) {
      slice_cols<W, false>(g.col, b, e, nullptr, g.x, ld, orow, g.width);
      continue;
    }
    for (int p = 0; p < g.parts; ++p) {
      const std::size_t c0 = static_cast<std::size_t>(p) * fpp;
      slice_cols<W, true>(g.col, b, e, g.stripe_w[p], g.x + c0, ld, orow + c0,
                          fpp);
    }
  }
}

}  // namespace
}  // namespace pipad::simd
