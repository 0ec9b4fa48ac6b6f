// FNV-1a hashing, used for deterministic type identity (GUID-from-name),
// conformance-cache keys and content fingerprints, and the integer mixing
// those keys and SplitMix64 streams share.
#pragma once

#include <cstdint>
#include <string_view>

namespace pti::util {

inline constexpr std::uint64_t kFnvOffset64 = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime64 = 0x100000001b3ULL;

[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view data,
                                              std::uint64_t seed = kFnvOffset64) noexcept {
  std::uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime64;
  }
  return h;
}

/// Combines two hashes (boost::hash_combine-style, 64-bit constants).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// SplitMix64's finalizer, a bijection in which every input bit reaches
/// every output bit. hash_combine only carries bits upward, so mix its
/// result before any narrow slice of it (an index's low bits) is used.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace pti::util
