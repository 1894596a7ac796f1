#include "combinatorics/implicit_family.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "combinatorics/doubling_schedule.hpp"
#include "combinatorics/verifier.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wc = wakeup::comb;
namespace wu = wakeup::util;

namespace {

struct GridPoint {
  std::uint32_t n;
  std::uint32_t k;
};

const std::vector<GridPoint>& grid() {
  static const std::vector<GridPoint> points = {
      {1, 1}, {2, 2}, {7, 2},  {16, 2},  {16, 5},  {31, 4},
      {64, 2}, {64, 8}, {100, 3}, {128, 16}, {200, 7}, {256, 64},
  };
  return points;
}

const std::vector<wc::FamilyKind>& kinds() {
  static const std::vector<wc::FamilyKind> all = {
      wc::FamilyKind::kRandomized,
      wc::FamilyKind::kBitSplitter,  // k > 2 points exercise the fallback
      wc::FamilyKind::kModPrime,
      wc::FamilyKind::kKautzSingleton,
  };
  return all;
}

}  // namespace

// The core tentpole contract: for every builder kind over the sampled
// (n,k) grid, the implicit family and the materialized builder agree on
// every (set, station) bit — via contains, membership_word, and
// materialize().
TEST(ImplicitFamily, BitIdenticalToMaterializedBuilders) {
  for (const wc::FamilyKind kind : kinds()) {
    for (const auto& [n, k] : grid()) {
      const std::uint64_t seed = wu::hash_words({n, k, 99});
      const auto implicit = wc::make_implicit_family(kind, n, k, seed);
      const auto built = wc::build_family(kind, n, k, seed);
      ASSERT_EQ(implicit->length(), built.length())
          << wc::family_kind_name(kind) << " n=" << n << " k=" << k;
      ASSERT_EQ(implicit->params().n, built.params().n);
      ASSERT_EQ(implicit->params().k, built.params().k);
      EXPECT_EQ(implicit->origin(), built.origin());
      for (std::size_t j = 0; j < built.length(); ++j) {
        for (wc::Station u = 0; u < n; ++u) {
          ASSERT_EQ(implicit->contains(j, u), built.transmits(u, j))
              << wc::family_kind_name(kind) << " n=" << n << " k=" << k << " j=" << j
              << " u=" << u;
        }
      }
    }
  }
}

TEST(ImplicitFamily, MembershipWordMatchesContains) {
  for (const wc::FamilyKind kind : kinds()) {
    for (const auto& [n, k] : grid()) {
      const std::uint64_t seed = wu::hash_words({n, k, 7});
      const auto implicit = wc::make_implicit_family(kind, n, k, seed);
      const std::size_t length = implicit->length();
      for (wc::Station u = 0; u < n; u += (n > 16 ? 13 : 1)) {
        for (std::size_t from = 0; from < length; from += 17) {
          const std::uint64_t word = implicit->membership_word(u, from);
          const std::size_t end = std::min<std::size_t>(length - from, 64);
          for (std::size_t j = 0; j < end; ++j) {
            ASSERT_EQ((word >> j) & 1u, implicit->contains(from + j, u) ? 1u : 0u)
                << wc::family_kind_name(kind) << " n=" << n << " k=" << k
                << " from=" << from << " u=" << u << " j=" << j;
          }
        }
      }
    }
  }
}

TEST(ImplicitFamily, MaterializeRoundTrips) {
  for (const wc::FamilyKind kind : kinds()) {
    const auto implicit = wc::make_implicit_family(kind, 64, 8, 5);
    const auto materialized = implicit->materialize();
    const auto built = wc::build_family(kind, 64, 8, 5);
    ASSERT_EQ(materialized.length(), built.length());
    for (std::size_t j = 0; j < built.length(); ++j) {
      for (wc::Station u = 0; u < 64; ++u) {
        ASSERT_EQ(materialized.transmits(u, j), built.transmits(u, j));
      }
    }
  }
}

// The proven constructions stay proven through the implicit path: the
// verifier accepts their materializations.
TEST(ImplicitFamily, VerifierPassesOnImplicitModPrime) {
  const auto family = wc::make_implicit_family(wc::FamilyKind::kModPrime, 24, 3, 1);
  const auto report = wc::verify_exhaustive(family->materialize());
  EXPECT_TRUE(report.ok) << "subsets checked: " << report.subsets_checked;
}

TEST(ImplicitFamily, VerifierPassesOnImplicitKautzSingleton) {
  const auto family = wc::make_implicit_family(wc::FamilyKind::kKautzSingleton, 24, 3, 1);
  const auto report = wc::verify_exhaustive(family->materialize());
  EXPECT_TRUE(report.ok) << "subsets checked: " << report.subsets_checked;
}

TEST(ImplicitFamily, GreedyWrapsMaterialized) {
  const auto implicit = wc::make_implicit_family(wc::FamilyKind::kGreedy, 10, 3, 2);
  const auto built = wc::build_greedy(10, 3, 2);
  ASSERT_EQ(implicit->length(), built.length());
  for (std::size_t j = 0; j < built.length(); ++j) {
    for (wc::Station u = 0; u < 10; ++u) {
      ASSERT_EQ(implicit->contains(j, u), built.transmits(u, j));
    }
  }
}

// build_randomized draws membership from the counter RNG, so any single
// bit is random-accessible: spot-check that a fresh implicit family over
// the same (seed, n, k) re-derives the exact realized sets.
TEST(ImplicitFamily, RandomizedBuilderIsCounterBased) {
  const auto built = wc::build_randomized(96, 6, 4.0, 42);
  const auto implicit = wc::make_implicit_family(wc::FamilyKind::kRandomized, 96, 6, 42, 4.0);
  ASSERT_EQ(implicit->length(), built.length());
  for (std::size_t j = 0; j < built.length(); ++j) {
    for (wc::Station u = 0; u < 96; ++u) {
      ASSERT_EQ(implicit->contains(j, u), built.transmits(u, j)) << "j=" << j << " u=" << u;
    }
  }
}

namespace {

/// The randomized family's draw written out from scratch, with none of the
/// family's cached stream state or pre-mixed stations: u ∈ set j iff the
/// 53-bit uniform from hash_words({stream seed, j, u}) falls below 1/k.
bool reference_randomized(std::uint64_t seed, std::uint32_t n, std::uint32_t k, std::size_t j,
                          wc::Station u) {
  k = std::min(k, n);
  const std::uint64_t h = wu::hash_words({wc::detail::randomized_stream_seed(seed, n, k), j, u});
  return static_cast<double>(h >> 11) * 0x1.0p-53 < 1.0 / static_cast<double>(k);
}

}  // namespace

// contains, membership_word and build_randomized against the written-out
// draw, so a change that moved realized bits consistently in all three
// still fails here.
TEST(ImplicitFamily, RandomizedMatchesReferenceDraw) {
  for (const std::uint32_t n : {64u, 4096u}) {
    for (const std::uint32_t k : {1u, 2u, 6u, 64u, 256u}) {
      const std::uint64_t seed = wu::hash_words({n, k, 11});
      const auto family = wc::make_implicit_family(wc::FamilyKind::kRandomized, n, k, seed);
      const std::size_t length = family->length();
      for (const wc::Station u : {0u, 1u, n / 3, n - 1}) {
        for (std::size_t j = 0; j < length; ++j) {
          ASSERT_EQ(family->contains(j, u), reference_randomized(seed, n, k, j, u))
              << "n=" << n << " k=" << k << " j=" << j << " u=" << u;
        }
        for (std::size_t from = 0; from < length; from += from + 64 < length ? 29 : 1) {
          const std::uint64_t word = family->membership_word(u, from);
          const std::size_t end = std::min<std::size_t>(length - from, 64);
          for (std::size_t j = 0; j < end; ++j) {
            ASSERT_EQ((word >> j) & 1u, reference_randomized(seed, n, k, from + j, u) ? 1u : 0u)
                << "n=" << n << " k=" << k << " from=" << from << " u=" << u << " j=" << j;
          }
        }
      }
      if (n > 64) continue;  // the materialized builder at small n only
      const auto built = wc::build_randomized(n, k, wc::kDefaultRandomFamilyC, seed);
      ASSERT_EQ(built.length(), length);
      for (std::size_t j = 0; j < length; ++j) {
        for (wc::Station u = 0; u < n; ++u) {
          ASSERT_EQ(built.transmits(u, j), reference_randomized(seed, n, k, j, u))
              << "n=" << n << " k=" << k << " j=" << j << " u=" << u;
        }
      }
    }
  }
}

namespace {

/// Undoes x ^= x >> s (the high s bits are kept, each pass recovers s more).
std::uint64_t unxorshift(std::uint64_t y, unsigned s) {
  std::uint64_t x = y;
  for (unsigned done = s; done < 64; done += s) x = y ^ (x >> s);
  return x;
}

/// The inverse of an odd multiplier mod 2^64 (Newton: each step doubles
/// the correct low bits).
std::uint64_t odd_inverse(std::uint64_t m) {
  std::uint64_t inv = m;
  for (int i = 0; i < 6; ++i) inv *= 2 - m * inv;
  return inv;
}

/// util::mix64 run backwards.
std::uint64_t unmix64(std::uint64_t x) {
  x = unxorshift(x, 31);
  x *= odd_inverse(wu::kMix64Mul2);
  x = unxorshift(x, 27);
  x *= odd_inverse(wu::kMix64Mul1);
  return unxorshift(x, 30);
}

/// The `mixed_u` whose draw for set j is exactly h: hash_combine(P, b) =
/// mix64(P + G + (b ^ (P << 6) ^ (P >> 2))) is solvable for b.
std::uint64_t key_for_draw(std::uint64_t stream_state, std::uint64_t j, std::uint64_t h) {
  const std::uint64_t prefix = wu::hash_combine(stream_state, wu::mix64(j));
  return (unmix64(h) - prefix - wu::kCombineAdd) ^ (prefix << 6) ^ (prefix >> 2);
}

}  // namespace

// The randomized draw's integer form is exact: (h >> 11)·2⁻⁵³ < p holds iff
// h < bernoulli_threshold(p) — checked on draws steered to either side of the
// bound (mix64 is invertible) and on random ones, for power-of-two and
// other p, through randomized_member and through the emitters' kernel.
TEST(ImplicitFamily, RandomizedDrawIsExactInIntegerForm) {
  std::vector<double> ps;
  for (int j = 1; j <= 20; ++j) ps.push_back(std::ldexp(1.0, -j));
  ps.push_back(1.0 / 3.0);
  ps.push_back(1.0 / 37.0);
  ps.push_back(1.0 / static_cast<double>(wc::detail::clamp_family_k(1000, 5000)));
  ps.push_back(1.0 / static_cast<double>(wc::detail::clamp_family_k(37, 37)));
  wu::Rng rng(20130522);
  const std::uint64_t stream_state = wu::hash_words({rng.next_u64()});
  for (const double p : ps) {
    const std::uint64_t bound = wu::bernoulli_threshold(p);
    EXPECT_EQ(bound, static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53))) << 11) << p;
    std::vector<std::uint64_t> draws = {bound - 1, bound, bound + 1, 0, ~std::uint64_t{0}};
    for (int i = 0; i < 64; ++i) draws.push_back(rng.next_u64());
    for (std::size_t i = 0; i < draws.size(); ++i) {
      const std::uint64_t h = draws[i];
      const std::uint64_t j = i * 7 + 1;
      const std::uint64_t key = key_for_draw(stream_state, j, h);
      ASSERT_EQ(wu::hash_combine(wu::hash_combine(stream_state, wu::mix64(j)), key), h);
      const bool uniform_draw = static_cast<double>(h >> 11) * 0x1.0p-53 < p;
      ASSERT_EQ(h < bound, uniform_draw) << "p=" << p << " h=" << h;
      ASSERT_EQ(wc::detail::randomized_member(stream_state, j, key, p), uniform_draw)
          << "p=" << p << " h=" << h;
      // The same lane through the emitters' kernel.
      std::array<std::uint64_t, 64> prefix{};
      std::array<std::uint64_t, 64> bounds{};
      prefix[5] = wu::hash_combine(stream_state, wu::mix64(j));
      bounds[5] = bound;
      std::uint64_t word = 0;
      wu::simd::hash_below(prefix.data(), bounds.data(), &key, 1, &word);
      ASSERT_EQ(word, uniform_draw ? std::uint64_t{1} << 5 : 0) << "p=" << p << " h=" << h;
    }
  }
}

// DoublingSchedule serves the same bits through the implicit backend as
// the lazily materialized families.
TEST(ImplicitFamily, DoublingScheduleMatchesMaterializedFamilies) {
  for (const wc::FamilyKind kind : kinds()) {
    wc::DoublingSchedule::Config config;
    config.n = 64;
    config.k_max = 8;
    config.kind = kind;
    config.seed = 3;
    const wc::DoublingSchedule sched(config);
    for (std::uint64_t idx = 0; idx < sched.period(); ++idx) {
      const auto pos = sched.position(idx);
      const auto& fam = sched.family(pos.family_index);
      for (wc::Station u = 0; u < 64; u += 5) {
        ASSERT_EQ(sched.transmits(u, idx), fam.transmits(u, static_cast<std::size_t>(pos.step)))
            << wc::family_kind_name(kind) << " idx=" << idx << " u=" << u;
      }
    }
  }
}
