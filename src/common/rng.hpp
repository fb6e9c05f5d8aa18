// Seeded, reproducible random number generation.
//
// All stochastic components (graph generators, weight init, OR-sweep snapshot
// selection) draw from an explicitly seeded Rng so that every experiment is
// bit-reproducible across runs — a requirement for the regression tests that
// pin benchmark shapes.
#pragma once

#include <cstdint>

namespace pipad {

/// xoshiro256** — fast, high-quality, and trivially seedable.
/// We avoid std::mt19937 because its state is large and its distributions are
/// implementation-defined, which would break cross-platform reproducibility.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      si = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n) {
    // Lemire's nearly-divisionless method; bias is negligible for our n.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * n) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1): k * 2^-24 for a uniform 24-bit k. Normal
  /// draws are built from these by ops::fill_normal (tensor/normal.hpp).
  float next_float() {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) { return lo + (hi - lo) * next_float(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace pipad
