// Deterministic 64-bit hashing: FNV-1a over bytes and the splitmix64
// finalizer. Every stable key and seed in HybridIC is built from these
// (store object names and checksums, journal sums, batch job seeds,
// congruence keys, fault-site streams, board tie-breaks, Rng seeding), and
// many of those values are persisted, so the constants and the order of
// operations are part of the on-disk format.
#pragma once

#include <cstdint>
#include <string_view>

namespace hybridic {

inline constexpr std::uint64_t kFnv1a64Basis = 0xCBF29CE484222325ULL;

/// splitmix64's state increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitmix64Gamma = 0x9E3779B97F4A7C15ULL;

/// FNV-1a 64-bit over `data`, starting from `basis`.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view data, std::uint64_t basis = kFnv1a64Basis) {
  std::uint64_t hash = basis;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// splitmix64's output finalizer alone, without the state increment.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// One splitmix64 output from state `x`: mix64(x + gamma).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  return mix64(x + kSplitmix64Gamma);
}

}  // namespace hybridic
