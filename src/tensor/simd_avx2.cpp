// The 8-lane instantiations of the exact kernels (tensor/simd_kernels.hpp),
// compiled for AVX2 without FMA: -ffp-contract=off still holds, so every
// product is rounded before it is added, as at 4 lanes. Callers run these
// entry points only when simd::lanes() == 8.
//
// The standard headers come before the target switch, so none of their
// inline functions is compiled for AVX2 here. The kernel headers come after
// it: a template takes its target from where it is defined, not from where
// it is instantiated. Everything they define has internal linkage, and this
// file defines nothing else but the detail:: entry points, so no copy
// compiled here can stand in for one on the SSE2 path (the
// simd_linkage_guard test checks both properties in the built library).
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC target("avx2")
#endif
#endif

#include "tensor/simd_kernels.hpp"

namespace pipad::simd::detail {

void gemm_rows_8(const GemmArgs& g, std::size_t lo, std::size_t hi) {
  gemm_rows<8>(g, lo, hi);
}

void bias_grad_8(const float* grad, int rows, int cols, std::size_t lo,
                 std::size_t hi, float* out) {
  bias_grad_cols<8>(grad, rows, cols, lo, hi, out);
}

void tanh_n_8(const float* x, float* y, std::size_t n) {
  tanh_span<8>(x, y, n);
}

void logf_n_8(const float* x, float* y, std::size_t n) {
  logf_span<8>(x, y, n);
}

void cosf_n_8(const float* x, float* y, std::size_t n) {
  cosf_span<8>(x, y, n);
}

void agg_slices_8(const AggArgs& g, std::size_t lo, std::size_t hi) {
  agg_slices<8>(g, lo, hi);
}

}  // namespace pipad::simd::detail

#if defined(__clang__) && (defined(__x86_64__) || defined(__i386__))
#pragma clang attribute pop
#endif
