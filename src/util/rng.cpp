#include "util/rng.hpp"

#include <array>
#include <bit>
#include <cstddef>

namespace hybridic {

namespace {

/// A GF(2) polynomial of degree < 256; bit i of word i/64 is the
/// coefficient of x^i.
using Poly256 = std::array<std::uint64_t, 4>;

/// The xoshiro256 state update is linear over GF(2), so its 256x256
/// transition matrix T has a characteristic polynomial p(x) of degree 256,
/// and p(T) = 0. These are p's coefficients below x^256 (p is monic),
/// recovered with Berlekamp-Massey from one state bit's sequence. As a
/// cross-check, x^(2^128) mod p is exactly the reference implementation's
/// jump() polynomial {0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
/// 0xa9582618e03fc9aa, 0x39abdc4529b1661c}.
constexpr Poly256 kCharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                               0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

/// a * x mod p.
constexpr Poly256 times_x_mod(Poly256 a) {
  const bool carry = (a[3] >> 63) != 0;
  a[3] = (a[3] << 1) | (a[2] >> 63);
  a[2] = (a[2] << 1) | (a[1] >> 63);
  a[1] = (a[1] << 1) | (a[0] >> 63);
  a[0] <<= 1;
  if (carry) {
    for (std::size_t w = 0; w < 4; ++w) {
      a[w] ^= kCharPoly[w];
    }
  }
  return a;
}

/// Row i is x^(256+i) mod p: folding a set bit 256+i of a product back
/// below x^256 XORs in row i. Built at compile time.
constexpr std::array<Poly256, 256> kReduceRows = [] {
  std::array<Poly256, 256> rows{};
  Poly256 row = kCharPoly;  // x^256 mod p.
  for (Poly256& out : rows) {
    out = row;
    row = times_x_mod(row);
  }
  return rows;
}();

/// Bits 0..31 of `x` moved to the even positions 0, 2, ..., 62: the GF(2)
/// square of a 32-bit polynomial.
constexpr std::uint64_t spread_bits(std::uint64_t x) {
  x &= 0xFFFFFFFFULL;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

/// a^2 mod p. Squaring over GF(2) only interleaves zeros between the
/// coefficients; the upper 256 bits are then folded back with the rows.
Poly256 square_mod(const Poly256& a) {
  std::uint64_t wide[8] = {};
  for (std::size_t w = 0; w < 4; ++w) {
    wide[2 * w] = spread_bits(a[w]);
    wide[2 * w + 1] = spread_bits(a[w] >> 32);
  }
  Poly256 r = {wide[0], wide[1], wide[2], wide[3]};
  for (std::size_t w = 4; w < 8; ++w) {
    for (std::uint64_t bits = wide[w]; bits != 0; bits &= bits - 1) {
      const Poly256& row = kReduceRows[(w - 4) * 64 +
                                       static_cast<std::size_t>(
                                           std::countr_zero(bits))];
      for (std::size_t i = 0; i < 4; ++i) {
        r[i] ^= row[i];
      }
    }
  }
  return r;
}

/// x^n mod p by left-to-right square-and-multiply.
Poly256 x_pow_mod(std::uint64_t n) {
  Poly256 r = {1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
    r = square_mod(r);
    if (((n >> bit) & 1U) != 0) {
      r = times_x_mod(r);
    }
  }
  return r;
}

}  // namespace

void Rng::discard(std::uint64_t n) {
  // T^n = r(T) for r = x^n mod p, so the advanced state is the XOR of
  // T^i s over r's set coefficients i: 256 steps, as in the reference
  // jump() but with a computed polynomial.
  const Poly256 r = x_pow_mod(n);
  std::uint64_t acc[4] = {};
  for (std::size_t i = 0; i < 256; ++i) {
    if (((r[i / 64] >> (i % 64)) & 1U) != 0) {
      for (std::size_t w = 0; w < 4; ++w) {
        acc[w] ^= state_[w];
      }
    }
    next();
  }
  for (std::size_t w = 0; w < 4; ++w) {
    state_[w] = acc[w];
  }
}

}  // namespace hybridic
