#include "util/rng.hpp"

namespace wakeup::util {

namespace {

using Jump = Xoshiro256ss::Jump;

/// The characteristic polynomial P of xoshiro256's state transition, less
/// its x^256 term (so x^256 = kCharPoly mod P).  Berlekamp–Massey over the
/// sequence of one state bit (bit 0 of s[0]) recovers it at degree 256, and
/// Xoshiro256ss::jump_pow2(128) and (192) reproduce the reference JUMP and
/// LONG_JUMP constants from it (tests/test_rng.cpp).
constexpr Jump kCharPoly{0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
                         0x0003c03c3f3ecb19ULL};

/// a·b mod P, by Horner's rule over a's coefficients from x^255 down.
Jump multiply(const Jump& a, const Jump& b) noexcept {
  Jump r{};
  for (unsigned i = 256; i-- > 0;) {
    const std::uint64_t wrap = 0 - (r[3] >> 63);  // r·x has an x^256 term
    r[3] = (r[3] << 1) | (r[2] >> 63);
    r[2] = (r[2] << 1) | (r[1] >> 63);
    r[1] = (r[1] << 1) | (r[0] >> 63);
    r[0] <<= 1;
    const std::uint64_t take = 0 - ((a[i / 64] >> (i % 64)) & 1);
    for (unsigned w = 0; w < 4; ++w) r[w] ^= (kCharPoly[w] & wrap) ^ (b[w] & take);
  }
  return r;
}

constexpr Jump kX{2, 0, 0, 0};

}  // namespace

void Xoshiro256ss::jump(const Jump& q) noexcept {
  std::array<std::uint64_t, 4> t{};
  for (unsigned b = 0; b < 256; ++b) {
    const std::uint64_t take = 0 - ((q[b / 64] >> (b % 64)) & 1);
    for (unsigned w = 0; w < 4; ++w) t[w] ^= s_[w] & take;
    (void)next();
  }
  s_ = t;
}

Xoshiro256ss::Jump Xoshiro256ss::jump_for(std::uint64_t m) noexcept {
  static const std::array<Jump, 64> pow2 = [] {
    std::array<Jump, 64> table{kX};
    for (unsigned j = 1; j < 64; ++j) table[j] = multiply(table[j - 1], table[j - 1]);
    return table;
  }();
  Jump r{1, 0, 0, 0};
  for (unsigned j = 0; j < 64; ++j) {
    if ((m >> j) & 1) r = multiply(r, pow2[j]);
  }
  return r;
}

Xoshiro256ss::Jump Xoshiro256ss::jump_pow2(unsigned j) noexcept {
  Jump r = kX;
  for (unsigned i = 0; i < j; ++i) r = multiply(r, r);
  return r;
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  // In uint64_t, where the span and the sum wrap instead of overflowing; a
  // span that wraps to 0 is the full 2^64 range.
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  const std::uint64_t offset = span == 0 ? next_u64() : uniform(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

unsigned Rng::coin_run(unsigned cap) noexcept {
  unsigned run = 0;
  while (run < cap && bernoulli_pow2(1)) ++run;
  return run;
}

}  // namespace wakeup::util
