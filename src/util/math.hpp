#pragma once

/// \file math.hpp
/// Small integer/log helpers plus the paper's bound formulae.
///
/// The paper (De Marco & Kowalski) writes `log` for `log_2` and omits floors
/// and ceilings; the `*_clamped` helpers centralize the conventions this
/// implementation uses so every module computes `log n` and `log log n`
/// identically.

#include <cstdint>

namespace wakeup::util {

/// floor(log2(x)) for x >= 1; returns 0 for x == 0 or 1.
[[nodiscard]] constexpr unsigned floor_log2(std::uint64_t x) noexcept {
  unsigned r = 0;
  while (x > 1) {
    x >>= 1;
    ++r;
  }
  return r;
}

/// ceil(log2(x)) for x >= 1; returns 0 for x == 0 or 1.
[[nodiscard]] constexpr unsigned ceil_log2(std::uint64_t x) noexcept {
  if (x <= 1) return 0;
  return floor_log2(x - 1) + 1;
}

[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// Smallest power of two >= x (x == 0 yields 1).
[[nodiscard]] constexpr std::uint64_t next_pow2(std::uint64_t x) noexcept {
  if (x <= 1) return 1;
  return std::uint64_t{1} << ceil_log2(x);
}

[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return b == 0 ? 0 : (a + b - 1) / b;
}

/// Integer power (no overflow checking; intended for small operands).
[[nodiscard]] constexpr std::uint64_t ipow(std::uint64_t base, unsigned exp) noexcept {
  std::uint64_t r = 1;
  while (exp-- > 0) r *= base;
  return r;
}

/// Spreads the low 32 bits of x to the even bit positions of a 64-bit word
/// (interleave-with-zeros, the Morton-encode half).  Used to merge two
/// 32-slot half-schedules into one 64-slot word when protocols interleave
/// by slot parity.
[[nodiscard]] constexpr std::uint64_t spread_even_bits32(std::uint64_t x) noexcept {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

/// `log n` as the paper uses it: ceil(log2(n)) clamped to at least 1.
/// (Rows of the transmission matrix are indexed 1..log n, so the value must
/// be positive even for n <= 2.)
[[nodiscard]] constexpr unsigned log2n_clamped(std::uint64_t n) noexcept {
  const unsigned l = ceil_log2(n);
  return l < 1 ? 1u : l;
}

/// `log log n` clamped to at least 1 (window width of the Scenario C
/// protocol; a zero-width window would be meaningless).
[[nodiscard]] constexpr unsigned loglog2n_clamped(std::uint64_t n) noexcept {
  const unsigned l = ceil_log2(log2n_clamped(n));
  return l < 1 ? 1u : l;
}

/// The Scenario A/B target bound `k * log2(n/k) + 1` (Theta for both
/// algorithms).  Computed in doubles for use as a normalization constant;
/// the `+k` term of `O(k + k log(n/k))` is folded in by clamping the log
/// factor to at least 1, matching the paper's `Θ(k log(n/k) + 1)` shorthand.
[[nodiscard]] double scenario_ab_bound(std::uint64_t n, std::uint64_t k) noexcept;

/// The Scenario C target bound `k * log2(n) * log2(log2(n))`.
[[nodiscard]] double scenario_c_bound(std::uint64_t n, std::uint64_t k) noexcept;

/// Theorem 2.1 lower bound `min{k, n-k+1}`.
[[nodiscard]] constexpr std::uint64_t theorem21_bound(std::uint64_t n, std::uint64_t k) noexcept {
  const std::uint64_t a = k;
  const std::uint64_t b = n >= k ? n - k + 1 : 1;
  return a < b ? a : b;
}

}  // namespace wakeup::util
