// Deterministic seeded random number generation.
//
// Everything in HybridIC that needs randomness (workload generators,
// synthetic traffic, annealing placement) takes an explicit Rng so runs
// are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <limits>

namespace hybridic {

/// xoshiro256** — small, fast, high-quality PRNG with splitmix64 seeding.
class Rng {
public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      word = splitmix64(x);
    }
  }

  using result_type = std::uint64_t;
  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advance the state exactly as `n` calls to next() would, in O(log n)
  /// (a few microseconds; no set-up, no shared state).
  void discard(std::uint64_t n);

  /// Uniform integer in [0, bound) with Lemire rejection (unbiased enough
  /// for workload generation; bound must be non-zero).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  bool chance(double p) { return uniform() < p; }

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  static std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_[4] = {};
};

}  // namespace hybridic
