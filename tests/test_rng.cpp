#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

namespace wu = wakeup::util;

TEST(Rng, SameSeedSameStream) {
  wu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  wu::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformRespectsBound) {
  wu::Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformZeroBoundReturnsZero) {
  wu::Rng rng(7);
  EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Rng, UniformCoversAllResidues) {
  wu::Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  wu::Rng rng(13);
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform(bound)];
  for (std::uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], trials / 10, trials / 50) << "residue " << v;
  }
}

TEST(Rng, UniformRangeInclusive) {
  wu::Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRangeDegenerate) {
  wu::Rng rng(17);
  EXPECT_EQ(rng.uniform_range(5, 5), 5);
  EXPECT_EQ(rng.uniform_range(5, 4), 5);  // inverted: returns lo
}

TEST(Rng, UniformRangeSpansPastInt64) {
  // hi - lo overflows int64_t on both ranges; the draw is the unsigned-span
  // formula, and the full range is one raw draw offset by lo.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  wu::Rng rng(43), ref(43);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.uniform_range(-2, kMax);
    EXPECT_GE(v, -2);
    const std::uint64_t span = static_cast<std::uint64_t>(kMax) + 3;
    EXPECT_EQ(v, static_cast<std::int64_t>(static_cast<std::uint64_t>(-2) + ref.uniform(span)));
  }
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.uniform_range(kMin, kMax);
    EXPECT_EQ(v, static_cast<std::int64_t>(static_cast<std::uint64_t>(kMin) + ref.next_u64()));
    saw_negative = saw_negative || v < 0;
    saw_positive = saw_positive || v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  wu::Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  wu::Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  wu::Rng rng(29);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits, trials / 4, trials / 50);
}

TEST(Rng, BernoulliPow2Extremes) {
  wu::Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(rng.bernoulli_pow2(0));   // probability 1
    EXPECT_FALSE(rng.bernoulli_pow2(64)); // probability < 2^-63
    EXPECT_FALSE(rng.bernoulli_pow2(100));
  }
}

TEST(Rng, BernoulliPow2Frequency) {
  wu::Rng rng(37);
  const int trials = 200000;
  for (unsigned e : {1u, 2u, 4u}) {
    int hits = 0;
    for (int i = 0; i < trials; ++i) hits += rng.bernoulli_pow2(e) ? 1 : 0;
    const double expected = trials / static_cast<double>(1ULL << e);
    EXPECT_NEAR(hits, expected, 6.0 * std::sqrt(expected)) << "e=" << e;
  }
}

TEST(Rng, SplitIsIndependentOfParentPosition) {
  wu::Rng a(99);
  const wu::Rng split_before = a.split(5);
  (void)a.next_u64();
  const wu::Rng split_after = a.split(5);
  wu::Rng x = split_before, y = split_after;
  // split() is a pure function of (seed, tag): consuming the parent stream
  // must not change the derived stream.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(x.next_u64(), y.next_u64());
}

TEST(Rng, SplitTagsProduceDistinctStreams) {
  wu::Rng a(99);
  wu::Rng s1 = a.split(1), s2 = a.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (s1.next_u64() == s2.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, CoinRunCapped) {
  wu::Rng rng(41);
  for (int i = 0; i < 1000; ++i) EXPECT_LE(rng.coin_run(3), 3u);
}

TEST(Mix, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(wu::mix64(12345), wu::mix64(12345));
  EXPECT_NE(wu::mix64(1), wu::mix64(2));
  // Consecutive inputs should differ in many bits (avalanche, loose check).
  const std::uint64_t d = wu::mix64(1000) ^ wu::mix64(1001);
  int bits = 0;
  for (int i = 0; i < 64; ++i) bits += static_cast<int>((d >> i) & 1);
  EXPECT_GT(bits, 10);
}

TEST(Mix, HashWordsOrderSensitive) {
  EXPECT_NE(wu::hash_words({1, 2}), wu::hash_words({2, 1}));
  EXPECT_EQ(wu::hash_words({1, 2, 3}), wu::hash_words({1, 2, 3}));
  EXPECT_NE(wu::hash_words({1, 2, 3}), wu::hash_words({1, 2, 4}));
}

TEST(Mix, HashWordsLengthSensitive) {
  EXPECT_NE(wu::hash_words({1}), wu::hash_words({1, 0}));
}

TEST(Xoshiro, KnownNonZeroOutput) {
  wu::Xoshiro256ss gen(0);  // even seed 0 must produce a usable stream
  bool nonzero = false;
  for (int i = 0; i < 8; ++i) nonzero = nonzero || gen.next() != 0;
  EXPECT_TRUE(nonzero);
}

TEST(Xoshiro, AdvanceEqualsRepeatedNext) {
  for (const std::uint64_t m : {0ULL, 1ULL, 255ULL, 256ULL, 257ULL, 12000ULL}) {
    wu::Xoshiro256ss jumped(1234), stepped(1234);
    jumped.advance(m);
    for (std::uint64_t i = 0; i < m; ++i) (void)stepped.next();
    for (int i = 0; i < 8; ++i) EXPECT_EQ(jumped.next(), stepped.next()) << "m=" << m;
  }
  // 2^40 + 12345 draws are too many to step, so the table product that
  // advance() forms is held to forty squarings of x and 12345 steps.
  wu::Xoshiro256ss jumped(99), stepped(99);
  jumped.advance((std::uint64_t{1} << 40) + 12345);
  stepped.jump(wu::Xoshiro256ss::jump_pow2(40));
  for (int i = 0; i < 12345; ++i) (void)stepped.next();
  EXPECT_EQ(jumped.state(), stepped.state());
}

TEST(Xoshiro, SquaringReproducesTheReferenceJumpConstants) {
  using Jump = wu::Xoshiro256ss::Jump;
  EXPECT_EQ(wu::Xoshiro256ss::jump_pow2(128),
            (Jump{0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
                  0x39abdc4529b1661cULL}));
  EXPECT_EQ(wu::Xoshiro256ss::jump_pow2(192),
            (Jump{0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
                  0x39109bb02acbe635ULL}));
}
