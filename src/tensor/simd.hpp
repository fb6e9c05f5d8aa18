// Vectors of 4 or 8 float lanes for the bit-identical fast paths (the
// kernels of tensor/simd_kernels.hpp behind ops::gemm, ops::bias_grad,
// ops::tanh_n, ops::fill_normal and kernels::agg_sliced). Which width runs
// is chosen once per process, and both give the same bits.
//
// GCC/Clang `vector_size` vectors: 4 lanes map to SSE2 registers on the
// x86-64 baseline with no -march flag, 8 lanes to AVX2 registers in the one
// translation unit compiled for them (tensor/simd_avx2.cpp). Lane-wise * and
// + are the same IEEE single-precision operations as the scalar code's, so a
// loop that vectorizes across independent output elements — never across one
// element's sum — rounds exactly like its in-order scalar definition, at
// either width. Branches become masks: a comparison yields an all-ones /
// all-zeros integer lane, and select() keeps each lane's result from the
// branch its scalar code would take.
//
// The functions have internal linkage: the AVX2 translation unit compiles its
// own VEX-encoded copies, which the linker must never pick for a caller on
// the SSE2 path.
#pragma once

#include <cstdint>
#include <cstring>

namespace pipad::simd {

/// Float, int32 and uint32 vectors of W lanes, and the double vector of the
/// same register width (W / 2 lanes). A kernel that computes W floats in
/// double precision works on two such halves: a double vector of W lanes
/// would be wider than the target's registers, and GCC warns (-Wpsabi)
/// when one is passed to or returned from a function.
template <int W>
struct lane_types;
template <>
struct lane_types<4> {
  typedef float f __attribute__((vector_size(16)));
  typedef std::int32_t i __attribute__((vector_size(16)));
  typedef std::uint32_t u __attribute__((vector_size(16)));
  typedef double d __attribute__((vector_size(16)));
};
template <>
struct lane_types<8> {
  typedef float f __attribute__((vector_size(32)));
  typedef std::int32_t i __attribute__((vector_size(32)));
  typedef std::uint32_t u __attribute__((vector_size(32)));
  typedef double d __attribute__((vector_size(32)));
};

template <int W>
using vec = typename lane_types<W>::f;
template <int W>
using ivec = typename lane_types<W>::i;
template <int W>
using uvec = typename lane_types<W>::u;
template <int W>
using dvec = typename lane_types<W>::d;

namespace {

template <int W>
inline vec<W> load(const float* p) {
  vec<W> v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
inline void store(float* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

template <int W>
inline vec<W> splat(float f) {
  if constexpr (W == 4) {
    return vec<W>{f, f, f, f};
  } else {
    return vec<W>{f, f, f, f, f, f, f, f};
  }
}
template <int W>
inline ivec<W> splat(std::int32_t i) {
  if constexpr (W == 4) {
    return ivec<W>{i, i, i, i};
  } else {
    return ivec<W>{i, i, i, i, i, i, i, i};
  }
}
template <int W>
inline dvec<W> splat(double d) {
  if constexpr (W == 4) {
    return dvec<W>{d, d};
  } else {
    return dvec<W>{d, d, d, d};
  }
}

/// Lanes [H * W / 2, (H + 1) * W / 2) of v, widened to double (exact).
template <int H, int W, typename V>
inline dvec<W> widen(V v) {
  static_assert(H == 0 || H == 1);
  if constexpr (W == 4) {
    return __builtin_convertvector(
        __builtin_shufflevector(v, v, 2 * H, 2 * H + 1), dvec<W>);
  } else {
    return __builtin_convertvector(
        __builtin_shufflevector(v, v, 4 * H, 4 * H + 1, 4 * H + 2, 4 * H + 3),
        dvec<W>);
  }
}

/// The W lanes lo ++ hi, each rounded to float.
template <int W>
inline vec<W> narrow(dvec<W> lo, dvec<W> hi) {
  if constexpr (W == 4) {
    typedef float half __attribute__((vector_size(8)));
    const half a = __builtin_convertvector(lo, half);
    const half b = __builtin_convertvector(hi, half);
    return __builtin_shufflevector(a, b, 0, 1, 2, 3);
  } else {
    const vec<4> a = __builtin_convertvector(lo, vec<4>);
    const vec<4> b = __builtin_convertvector(hi, vec<4>);
    return __builtin_shufflevector(a, b, 0, 1, 2, 3, 4, 5, 6, 7);
  }
}

/// The W lanes lo ++ hi, each truncated to int32 (values must fit).
template <int W>
inline ivec<W> truncate(dvec<W> lo, dvec<W> hi) {
  if constexpr (W == 4) {
    typedef std::int32_t half __attribute__((vector_size(8)));
    const half a = __builtin_convertvector(lo, half);
    const half b = __builtin_convertvector(hi, half);
    return __builtin_shufflevector(a, b, 0, 1, 2, 3);
  } else {
    const ivec<4> a = __builtin_convertvector(lo, ivec<4>);
    const ivec<4> b = __builtin_convertvector(hi, ivec<4>);
    return __builtin_shufflevector(a, b, 0, 1, 2, 3, 4, 5, 6, 7);
  }
}

/// Lane-wise m ? a : b for a comparison mask m.
template <typename M>
inline M select(M m, M a, M b) {
  return (a & m) | (b & ~m);
}
template <typename V, typename M>
inline V select(M m, V a, V b) {
  return reinterpret_cast<V>((reinterpret_cast<M>(a) & m) |
                             (reinterpret_cast<M>(b) & ~m));
}

}  // namespace
}  // namespace pipad::simd
