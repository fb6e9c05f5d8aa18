// Standard normal draws whose bits depend on nothing but the Rng: Box-Muller
// with exact ports of glibc's logf and cosf, 4 or 8 lanes at a time (the
// width chosen once per process).
//
// fill_normal draws its uniforms serially from the Rng, in the order the
// one-at-a-time form always used: u1 (drawn again while it is 0), then u2.
// Each is a next_float() grid value k * 2^-24, so log sees the 2^24 - 1
// values u1 in (0, 1) and cos the 2^24 angles 2 pi u2 (a float product) in
// [0, 2 pi). On each of these the vector kernels (tensor/simd_kernels.hpp)
// return the same bits as glibc 2.36's logf and cosf, which tensor_test's
// NormalGrid suite checks at both widths against every point of the grid,
// and sqrt, the factor -2 and the final product are single IEEE operations.
// So every normal equals the scalar
//   std::sqrt(-2.0f * std::log(u1)) * std::cos(6.28318530717958647692f * u2)
// on a glibc host, bit for bit, and no normal draw (weight init, synthetic
// features) depends on the libm the binary links against.
//
// The kernels are ports of glibc's ARM optimized-routines logf (a 16-entry
// {1/c, log c} table and a degree-3 polynomial for log1p, in double) and
// cosf (sincosf's fast quadrant reduction and its sine and cosine
// polynomials, in double), computed without fused multiply-adds. glibc does
// not export their tables; the constants were read from the .rodata of a
// Debian glibc 2.36 libm.so.6, at the addresses its logf and cosf code
// loads them from (objdump -d), and match the published optimized-routines
// sources. Only the paths these grids reach are ported:
// logf's main path for positive normal x and cosf's for |x| < 120.
#pragma once

#include <cstddef>

namespace pipad {
class Rng;
}

namespace pipad::ops {

/// out[i] = a standard normal draw from rng, for i in [0, n), in draw
/// order. Works through the draws in chunks of a few hundred, with no
/// buffer that grows with n.
void fill_normal(Rng& rng, float* out, std::size_t n);

}  // namespace pipad::ops
