#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random number generation.
///
/// All randomness in the library flows through this header so that every
/// experiment is bitwise reproducible from a single 64-bit seed.  Two kinds
/// of generators are provided:
///
///  * `mix64` / `hash_words` — *stateless* mixing functions used where a
///    pseudo-random bit must be a pure function of its coordinates (e.g.
///    lazy transmission-matrix membership, per-trial substream derivation).
///  * `Rng` — a stateful xoshiro256** stream for sequential draws
///    (wake-pattern generation, randomized protocols, family sampling).
///    Its generator, `Xoshiro256ss`, steps a GF(2)-linear state, so `jump`
///    skips any number of draws exactly: the bootstrap CIs
///    (util/stats.cpp) split one stream into eight lanes this way.

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>

namespace wakeup::util {

/// Advances a SplitMix64 state and returns the next output word.
/// Used for seeding xoshiro and as the core of the stateless mixers.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// mix64's two multipliers and hash_combine's additive constant, named so
/// the vector kernels in util/simd.cpp spell the same function.
inline constexpr std::uint64_t kMix64Mul1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kMix64Mul2 = 0x94d049bb133111ebULL;
inline constexpr std::uint64_t kCombineAdd = 0x9e3779b97f4a7c15ULL;

/// Stateless finalizer: bijective 64-bit mix (SplitMix64 finalizer).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= kMix64Mul1;
  x ^= x >> 27;
  x *= kMix64Mul2;
  x ^= x >> 31;
  return x;
}

/// Combines two words into one pseudo-random word (order-sensitive).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  return mix64(a + kCombineAdd + (b ^ (a << 6) ^ (a >> 2)));
}

/// Hashes an arbitrary list of words into a single pseudo-random word.
/// `hash_words({seed, tag, i, j})` is the canonical substream-derivation
/// idiom used throughout the library.
[[nodiscard]] constexpr std::uint64_t hash_words(std::initializer_list<std::uint64_t> words) noexcept {
  std::uint64_t acc = 0x243f6a8885a308d3ULL;  // pi fractional bits
  for (std::uint64_t w : words) acc = hash_combine(acc, mix64(w));
  return acc;
}

/// The integer form of `Rng::uniform01() < p` for p < 1: a raw draw x
/// passes exactly when x < bernoulli_threshold(p) = ⌈p·2⁵³⌉·2¹¹, and never
/// for p <= 0 or NaN (threshold 0).  Both scalings by powers of two are
/// exact, an integer is below a real iff it is below the real's ceiling,
/// and p < 1 keeps the ceiling at most 2⁵³ − 1, so the threshold fits.
[[nodiscard]] inline std::uint64_t bernoulli_threshold(double p) noexcept {
  return p > 0.0 ? static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53))) << 11 : 0;
}

/// xoshiro256** 1.0 — fast, high-quality 256-bit-state generator.
class Xoshiro256ss {
 public:
  /// A polynomial over GF(2) of degree < 256: bit b of word i is the
  /// coefficient of x^(64i + b), the layout of the reference
  /// implementation's JUMP and LONG_JUMP constants.
  using Jump = std::array<std::uint64_t, 4>;

  /// Seeds the four state words via SplitMix64 (never all-zero).
  explicit constexpr Xoshiro256ss(std::uint64_t seed) noexcept : s_{} {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64_next(sm);
  }

  /// Resumes a stream from its state words (never all-zero).
  explicit constexpr Xoshiro256ss(const std::array<std::uint64_t, 4>& state) noexcept
      : s_(state) {}

  /// The state words s[0..4) of the reference implementation.
  [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state() const noexcept {
    return s_;
  }

  [[nodiscard]] constexpr std::uint64_t next() noexcept {
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

  // UniformRandomBitGenerator interface (usable with <random> if needed).
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  constexpr result_type operator()() noexcept { return next(); }

  /// Exactly what `m` calls of next() do to the state.
  void advance(std::uint64_t m) noexcept { jump(jump_for(m)); }

  /// s <- q(A)·s, where A is next()'s linear map on the state: 256 steps
  /// that sum the states whose coefficient in q is set, as the reference
  /// jump() does for its constant.
  void jump(const Jump& q) noexcept;

  /// x^m mod P, where P is A's characteristic polynomial, so that
  /// jump(jump_for(m)) = A^m by Cayley–Hamilton: one product per set bit
  /// of m over a table of x^(2^j).
  [[nodiscard]] static Jump jump_for(std::uint64_t m) noexcept;

  /// x^(2^j) mod P by j squarings; j = 128 and 192 are the reference
  /// JUMP and LONG_JUMP constants.
  [[nodiscard]] static Jump jump_pow2(unsigned j) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
    return (x << r) | (x >> (64 - r));
  }
  std::array<std::uint64_t, 4> s_;
};

/// Convenience wrapper with the uniform/bernoulli draws the library needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed), seed_(seed) {}

  /// The seed this stream was constructed from (for reporting).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  [[nodiscard]] std::uint64_t next_u64() noexcept { return gen_.next(); }

  /// The generator's state words (Xoshiro256ss::state): the stream
  /// resumes from them in the bursty arrival lanes.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return gen_.state();
  }

  /// Uniform integer in [0, bound). bound == 0 returns 0.  Inline so hot
  /// draw loops (bootstrap resampling) keep the generator state in registers.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's nearly-divisionless method with rejection for exact uniformity.
    std::uint64_t x = gen_.next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = gen_.next();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive; lo >= hi returns lo.  Any
  /// range is defined, the full int64 one included.
  [[nodiscard]] std::int64_t uniform_range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Bernoulli trial with probability 2^-e (exact, bit-twiddled).
  /// e >= 64 always fails; e == 0 always succeeds.
  [[nodiscard]] bool bernoulli_pow2(unsigned e) noexcept {
    if (e == 0) return true;
    if (e >= 64) return false;
    return (gen_.next() >> (64 - e)) == 0;
  }

  /// Geometric-ish draw: number of leading successful p=1/2 trials (capped).
  [[nodiscard]] unsigned coin_run(unsigned cap) noexcept;

  /// Derives an independent stream keyed by `tag` without perturbing this one.
  [[nodiscard]] Rng split(std::uint64_t tag) const noexcept {
    return Rng(hash_words({seed_, 0x53504c4954ULL /* "SPLIT" */, tag}));
  }

 private:
  Xoshiro256ss gen_;
  std::uint64_t seed_;
};

}  // namespace wakeup::util
