// Four-lane vectors for the bit-identical fast paths (ops::gemm, ops::tanh4,
// the fused RNN cells, kernels::agg_sliced).
//
// GCC/Clang `vector_size(16)` maps to SSE2 registers on the x86-64 baseline
// with no -march flag. Lane-wise * and + are the same IEEE single-precision
// operations as the scalar code's, so a loop that vectorizes across
// independent output elements — never across one element's sum — rounds
// exactly like its in-order scalar definition. Branches become masks: a
// comparison yields an all-ones / all-zeros v4i per lane, and select()
// keeps each lane's result from the branch its scalar code would take.
#pragma once

#include <cstdint>
#include <cstring>

namespace pipad::simd {

typedef float v4f __attribute__((vector_size(16)));
typedef std::int32_t v4i __attribute__((vector_size(16)));

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

inline v4f splat(float f) { return v4f{f, f, f, f}; }
inline v4i splat(std::int32_t i) { return v4i{i, i, i, i}; }

/// Lane-wise m ? a : b for a comparison mask m.
inline v4f select(v4i m, v4f a, v4f b) {
  return reinterpret_cast<v4f>((reinterpret_cast<v4i>(a) & m) |
                               (reinterpret_cast<v4i>(b) & ~m));
}
inline v4i select(v4i m, v4i a, v4i b) { return (a & m) | (b & ~m); }

}  // namespace pipad::simd
