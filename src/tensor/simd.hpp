// Four-float vectors for the bit-identical fast paths (ops::gemm, the fused
// RNN cells, kernels::agg_sliced).
//
// GCC/Clang `vector_size(16)` maps to SSE2 registers on the x86-64 baseline
// with no -march flag. Lane-wise * and + are the same IEEE single-precision
// operations as the scalar code's, so a loop that vectorizes across
// independent output elements — never across one element's sum — rounds
// exactly like its in-order scalar definition.
#pragma once

#include <cstring>

namespace pipad::simd {

typedef float v4f __attribute__((vector_size(16)));

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

}  // namespace pipad::simd
