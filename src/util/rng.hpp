// Deterministic pseudo-random generation (SplitMix64), used for simulated
// network jitter, GUID generation and property-test corpora. Deterministic
// seeding keeps every simulation and test reproducible.
#pragma once

#include <cstdint>

#include "util/hash.hpp"

namespace pti::util {

class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed = 0x5DEECE66DULL) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  constexpr std::uint64_t next_u64() noexcept {
    return mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }

  /// Uniform integer in [0, bound); bound must be > 0.
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Modulo bias is negligible for the bounds used here (<< 2^64).
    return next_u64() % bound;
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  constexpr bool next_bool(double p) noexcept { return next_double() < p; }

 private:
  std::uint64_t state_;
};

}  // namespace pti::util
