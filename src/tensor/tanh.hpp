// Exact single-precision tanh without libm: a scalar version and vectors of
// 4 or 8 lanes (the width chosen once per process) that return the same bits
// as glibc's tanhf on every input (NaN inputs give a NaN).
//
// All are ports of the fdlibm tanhf/expm1f pair that glibc ships (2.36 and
// earlier): tanh(x) = ±(1 - 2 / (expm1(2|x|) + 2)) for 1 <= |x| < 22 and
// ±(-t / (t + 2)) with t = expm1(-2|x|) below 1. The vector kernel
// (tensor/simd_kernels.hpp) computes every branch in every lane and blends
// the results with masks, so it does the same IEEE operations on each
// element as the scalar port, at either width. Only the expm1 branches tanh
// can reach are ported: its argument is 2|x| in [2, 44) or -2|x| in
// (-2, 0), so expm1's overflow, infinity and k = 1 paths never run.
//
// The fused RNN-cell passes and ops::tanh route every tanh through
// tanh_n, so no result depends on the libm the binary links against.
#pragma once

#include <cstddef>

namespace pipad::ops {

/// tanh(x), one element (the tail path of tanh_n, and the reference the
/// vector kernel is tested against).
float tanh_scalar(float x);

/// y[i] = tanh(x[i]) for i in [0, n), 4 or 8 elements at a time with a
/// scalar tail. y may equal x.
void tanh_n(const float* x, float* y, std::size_t n);

}  // namespace pipad::ops
