#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace hybridic {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.next() != b.next()) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 45);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17U);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng{9};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.between(3, 7);
    EXPECT_GE(v, 3U);
    EXPECT_LE(v, 7U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5U);  // All values hit over 2000 draws.
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{11};
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng rng{13};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.chance(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.25, 0.02);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == UINT64_MAX);
  Rng rng{5};
  EXPECT_NE(rng(), rng());
}

/// The next four outputs: a fingerprint of the generator state.
std::array<std::uint64_t, 4> fingerprint(Rng rng) {
  return {rng.next(), rng.next(), rng.next(), rng.next()};
}

/// State after `n` plain next() calls from `seed`.
std::array<std::uint64_t, 4> stepped(std::uint64_t seed, std::uint64_t n) {
  Rng rng{seed};
  for (std::uint64_t i = 0; i < n; ++i) {
    rng.next();
  }
  return fingerprint(rng);
}

TEST(Rng, DiscardMatchesRepeatedNextAtEdgeCounts) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1009ULL}) {
    for (const std::uint64_t n :
         {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 4095ULL, (1ULL << 17) + 3}) {
      Rng rng{seed};
      rng.discard(n);
      EXPECT_EQ(fingerprint(rng), stepped(seed, n))
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(Rng, DiscardMatchesRepeatedNextAtRandomCounts) {
  Rng counts{2024};
  for (const std::uint64_t seed : {3ULL, 42ULL, 1009ULL}) {
    for (int trial = 0; trial < 50; ++trial) {
      const std::uint64_t n = counts.below(1ULL << 22);
      Rng rng{seed};
      rng.discard(n);
      EXPECT_EQ(fingerprint(rng), stepped(seed, n))
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(Rng, DiscardComposesWithDraws) {
  // discard(a); next(); discard(b) must land where a + 1 + b next() calls
  // do — the synthetic generator interleaves jumps with real draws.
  Rng jumped{5};
  jumped.discard(1000);
  const std::uint64_t drawn = jumped.next();
  jumped.discard(77777);
  Rng walked{5};
  for (int i = 0; i < 1000; ++i) {
    walked.next();
  }
  EXPECT_EQ(walked.next(), drawn);
  for (int i = 0; i < 77777; ++i) {
    walked.next();
  }
  EXPECT_EQ(fingerprint(jumped), fingerprint(walked));
}

TEST(Rng, DiscardConcurrentFirstCallsAgree) {
  // Four threads make the process's first discard calls at once. Any
  // shared state behind discard must be race-free; CI runs this under
  // ThreadSanitizer.
  constexpr std::size_t kThreads = 4;
  std::vector<std::array<std::uint64_t, 4>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] {
      Rng rng{99};
      rng.discard((1ULL << 40) + 12345);
      results[t] = fingerprint(rng);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t], results[0]);
  }
}

}  // namespace
}  // namespace hybridic
