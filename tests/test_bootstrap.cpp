#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace wu = wakeup::util;

namespace {

// Naive reference: a full sort of the resampled statistics, and a copy +
// nth_element + min_element per quantile resample.  The library must
// reproduce these bit for bit, since the CIs are written to manifests.

wu::BootstrapCI naive_of_mean(const wu::Sample& sample, double level, std::uint64_t resamples,
                              std::uint64_t seed) {
  wu::BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = sample.mean();
  ci.lo = ci.hi = ci.mean;
  const auto& values = sample.values();
  if (values.size() < 2 || resamples == 0) return ci;

  wu::Rng rng(wu::hash_words({seed, 0x424f4f54ULL /* "BOOT" */}));
  std::vector<double> means;
  means.reserve(resamples);
  for (std::uint64_t r = 0; r < resamples; ++r) {
    double acc = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      acc += values[rng.uniform(values.size())];
    }
    means.push_back(acc / static_cast<double>(values.size()));
  }
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(means.size() - 1);
    return means[static_cast<std::size_t>(pos)];
  };
  ci.lo = at(alpha);
  ci.hi = at(1.0 - alpha);
  return ci;
}

wu::BootstrapCI naive_of_quantile(const wu::Sample& sample, double p, double level,
                                  std::uint64_t resamples, std::uint64_t seed) {
  wu::BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  ci.mean = sample.quantile(p);
  ci.lo = ci.hi = ci.mean;
  const auto& values = sample.values();
  if (values.size() < 2 || resamples == 0) return ci;

  wu::Rng rng(wu::hash_words({seed, 0x51424f4f54ULL /* "QBOOT" */}));
  const double clamped_p = std::clamp(p, 0.0, 1.0);
  const double pos = clamped_p * static_cast<double>(values.size() - 1);
  const auto lo_rank = static_cast<std::size_t>(pos);
  const std::size_t hi_rank = std::min(lo_rank + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo_rank);
  std::vector<double> draw(values.size());
  std::vector<double> quantiles;
  quantiles.reserve(resamples);
  for (std::uint64_t r = 0; r < resamples; ++r) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      draw[i] = values[rng.uniform(values.size())];
    }
    std::nth_element(draw.begin(), draw.begin() + static_cast<std::ptrdiff_t>(lo_rank),
                     draw.end());
    const double lo_value = draw[lo_rank];
    const double hi_value =
        hi_rank == lo_rank
            ? lo_value
            : *std::min_element(draw.begin() + static_cast<std::ptrdiff_t>(lo_rank) + 1,
                                draw.end());
    quantiles.push_back(lo_value * (1.0 - frac) + hi_value * frac);
  }
  std::sort(quantiles.begin(), quantiles.end());
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(quantiles.size() - 1);
    return quantiles[static_cast<std::size_t>(pos)];
  };
  ci.lo = at(alpha);
  ci.hi = at(1.0 - alpha);
  return ci;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_ci(const wu::BootstrapCI& got, const wu::BootstrapCI& want) {
  EXPECT_EQ(bits(got.mean), bits(want.mean));
  EXPECT_EQ(bits(got.lo), bits(want.lo));
  EXPECT_EQ(bits(got.hi), bits(want.hi));
  EXPECT_EQ(bits(got.level), bits(want.level));
}

/// Integer samples with heavy ties (the shape of per-trial round counts).
wu::Sample tied_sample(std::size_t n, std::uint64_t seed) {
  wu::Rng rng(seed);
  wu::Sample s;
  for (std::size_t i = 0; i < n; ++i) s.push(static_cast<double>(3 + rng.uniform(5)));
  return s;
}

/// Real-valued samples of both signs, no zeros and (almost surely) no ties.
wu::Sample real_sample(std::size_t n, std::uint64_t seed) {
  wu::Rng rng(seed);
  wu::Sample s;
  for (std::size_t i = 0; i < n; ++i) s.push((rng.uniform01() - 0.4) * 1e3 + 0.125);
  return s;
}

/// n copies of one value: one tie class, and every resampled statistic equal.
wu::Sample equal_sample(std::size_t n) {
  wu::Sample s;
  for (std::size_t i = 0; i < n; ++i) s.push(6.5);
  return s;
}

// real_sample(n) has n tie classes: 63, 64 and 65 straddle the sample
// size and the class count up to which the quantile's byte kernel runs.
const std::size_t kSizes[] = {0, 1, 2, 3, 32, 48, 63, 64, 65, 257};
const double kLevels[] = {0.5, 0.95, 0.999};
// The resamples are drawn in eight lanes of ⌈R/8⌉: R = 1, 2, 7 and 9 leave
// empty lanes, 9 and 1003 a short last one, 8 and 2000 fill every lane.
const std::uint64_t kResamples[] = {1, 2, 7, 8, 9, 1003, 2000};

}  // namespace

TEST(BootstrapCI, OfMeanMatchesTheNaiveReferenceBitForBit) {
  for (const std::size_t n : kSizes) {
    for (const wu::Sample& s : {tied_sample(n, n), real_sample(n, n), equal_sample(n)}) {
      for (const double level : kLevels) {
        for (const std::uint64_t resamples : kResamples) {
          SCOPED_TRACE(testing::Message() << "n=" << n << " level=" << level
                                          << " resamples=" << resamples);
          expect_same_ci(wu::BootstrapCI::of_mean(s, level, resamples, 77),
                         naive_of_mean(s, level, resamples, 77));
        }
      }
    }
  }
}

TEST(BootstrapCI, OfQuantileMatchesTheNaiveReferenceBitForBit) {
  for (const std::size_t n : kSizes) {
    for (const wu::Sample& s : {tied_sample(n, n + 1), real_sample(n, n + 1), equal_sample(n)}) {
      for (const double p : {0.0, 0.25, 0.5, 0.95, 1.0}) {
        for (const double level : kLevels) {
          for (const std::uint64_t resamples : kResamples) {
            SCOPED_TRACE(testing::Message() << "n=" << n << " p=" << p << " level=" << level
                                            << " resamples=" << resamples);
            expect_same_ci(wu::BootstrapCI::of_quantile(s, p, level, resamples, 91),
                           naive_of_quantile(s, p, level, resamples, 91));
          }
        }
      }
    }
  }
}

TEST(BootstrapCI, OfMeansSharesOnePassAndFallsBackOnUnequalSizes) {
  for (const std::size_t n : kSizes) {
    const wu::Sample a = tied_sample(n, 5);
    const wu::Sample b = real_sample(n, 6);
    for (const std::uint64_t resamples : kResamples) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " resamples=" << resamples);
      const auto [ci_a, ci_b] = wu::BootstrapCI::of_means(a, b, 0.95, resamples, 13);
      expect_same_ci(ci_a, naive_of_mean(a, 0.95, resamples, 13));
      expect_same_ci(ci_b, naive_of_mean(b, 0.95, resamples, 13));
    }
  }
  // Unequal sizes (a cell with failed trials: energy counts them, rounds
  // do not) take two independent passes.
  const wu::Sample rounds = tied_sample(45, 7);
  const wu::Sample energy = real_sample(48, 8);
  const auto [ci_rounds, ci_energy] = wu::BootstrapCI::of_means(rounds, energy, 0.95, 2000, 21);
  expect_same_ci(ci_rounds, naive_of_mean(rounds, 0.95, 2000, 21));
  expect_same_ci(ci_energy, naive_of_mean(energy, 0.95, 2000, 21));
}

TEST(BootstrapCI, SelectionEdgeCases) {
  const wu::Sample s = real_sample(48, 3);
  // R = 1: both percentile ends are rank 0, the single resampled statistic.
  const auto one = wu::BootstrapCI::of_mean(s, 0.95, 1, 4);
  expect_same_ci(one, naive_of_mean(s, 0.95, 1, 4));
  EXPECT_EQ(bits(one.lo), bits(one.hi));
  const auto one_q = wu::BootstrapCI::of_quantile(s, 0.5, 0.95, 1, 4);
  expect_same_ci(one_q, naive_of_quantile(s, 0.5, 0.95, 1, 4));
  EXPECT_EQ(bits(one_q.lo), bits(one_q.hi));
  // p = 1: lo = hi = rank n - 1, so every resample's statistic is its max.
  const auto top = wu::BootstrapCI::of_quantile(s, 1.0, 0.95, 2000, 4);
  expect_same_ci(top, naive_of_quantile(s, 1.0, 0.95, 2000, 4));
  EXPECT_LE(top.hi, s.max());
}

TEST(BootstrapCI, ConcurrentCallsMatchTheNaiveReference) {
  // Cell-sharded sweeps finalize cells on several threads at once, each
  // with its own cache of lane jumps.  Twelve (n, R) pairs give each
  // thread more jump distances than its cache holds.
  struct Case {
    wu::Sample rounds;
    wu::Sample energy;
    std::uint64_t resamples;
    std::uint64_t seed;
    std::array<wu::BootstrapCI, 3> want;  // mean, energy mean, median
  };
  std::vector<Case> cases;
  for (const std::size_t n : {12, 32, 45, 48}) {
    for (const std::uint64_t resamples : {9, 1003, 2000}) {
      const std::uint64_t seed = 100 * n + resamples;
      Case c{tied_sample(n, seed), real_sample(n, seed + 1), resamples, seed, {}};
      c.want = {naive_of_mean(c.rounds, 0.95, resamples, seed),
                naive_of_mean(c.energy, 0.95, resamples, seed),
                naive_of_quantile(c.rounds, 0.5, 0.95, resamples, seed)};
      cases.push_back(std::move(c));
    }
  }
  const auto same = [](const wu::BootstrapCI& a, const wu::BootstrapCI& b) {
    return bits(a.mean) == bits(b.mean) && bits(a.lo) == bits(b.lo) && bits(a.hi) == bits(b.hi);
  };
  std::array<std::size_t, 4> mismatches{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Each thread computes every case, starting at its own offset.
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case& c = cases[(i + 3 * t) % cases.size()];
        const auto [mean, energy] =
            wu::BootstrapCI::of_means(c.rounds, c.energy, 0.95, c.resamples, c.seed);
        const auto median = wu::BootstrapCI::of_quantile(c.rounds, 0.5, 0.95, c.resamples, c.seed);
        mismatches[t] += static_cast<std::size_t>(!same(mean, c.want[0])) +
                         static_cast<std::size_t>(!same(energy, c.want[1])) +
                         static_cast<std::size_t>(!same(median, c.want[2]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(BootstrapCI, ContainsTrueMeanForTightSample) {
  wu::Sample s;
  for (int i = 0; i < 200; ++i) s.push(10.0 + (i % 5));  // mean 12
  const auto ci = wu::BootstrapCI::of_mean(s, 0.95, 1000, 1);
  EXPECT_NEAR(ci.mean, 12.0, 1e-9);
  EXPECT_LE(ci.lo, 12.0);
  EXPECT_GE(ci.hi, 12.0);
  EXPECT_LT(ci.hi - ci.lo, 1.0);  // tight for low variance
}

TEST(BootstrapCI, WidensWithVariance) {
  wu::Sample tight, wide;
  for (int i = 0; i < 100; ++i) {
    tight.push(50.0 + (i % 3));
    wide.push(50.0 + 40.0 * ((i % 7) - 3));
  }
  const auto ci_tight = wu::BootstrapCI::of_mean(tight, 0.95, 1000, 2);
  const auto ci_wide = wu::BootstrapCI::of_mean(wide, 0.95, 1000, 2);
  EXPECT_LT(ci_tight.hi - ci_tight.lo, ci_wide.hi - ci_wide.lo);
}

TEST(BootstrapCI, DegenerateSamples) {
  wu::Sample empty;
  const auto ci_empty = wu::BootstrapCI::of_mean(empty, 0.95, 100, 1);
  EXPECT_DOUBLE_EQ(ci_empty.lo, ci_empty.hi);
  wu::Sample one;
  one.push(5.0);
  const auto ci_one = wu::BootstrapCI::of_mean(one, 0.95, 100, 1);
  EXPECT_DOUBLE_EQ(ci_one.lo, 5.0);
  EXPECT_DOUBLE_EQ(ci_one.hi, 5.0);
}

TEST(BootstrapCI, DeterministicForSeed) {
  wu::Sample s;
  for (int i = 0; i < 50; ++i) s.push(i);
  const auto a = wu::BootstrapCI::of_mean(s, 0.95, 500, 9);
  const auto b = wu::BootstrapCI::of_mean(s, 0.95, 500, 9);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

TEST(BootstrapCI, LevelClamped) {
  wu::Sample s;
  for (int i = 0; i < 20; ++i) s.push(i);
  const auto ci = wu::BootstrapCI::of_mean(s, 2.0, 200, 1);
  EXPECT_LE(ci.level, 0.999);
  const auto lo = wu::BootstrapCI::of_mean(s, 0.1, 200, 1);
  EXPECT_GE(lo.level, 0.5);
}

TEST(BootstrapCI, QuantileCIBracketsTheEstimate) {
  wu::Sample s;
  for (int i = 0; i < 200; ++i) s.push(i % 40);
  const auto ci = wu::BootstrapCI::of_quantile(s, 0.5, 0.95, 600, 4);
  EXPECT_NEAR(ci.mean, s.median(), 1e-12);
  EXPECT_LE(ci.lo, ci.mean);
  EXPECT_GE(ci.hi, ci.mean);
  // Deterministic, and on a different resample stream than of_mean.
  const auto again = wu::BootstrapCI::of_quantile(s, 0.5, 0.95, 600, 4);
  EXPECT_DOUBLE_EQ(ci.lo, again.lo);
  EXPECT_DOUBLE_EQ(ci.hi, again.hi);

  wu::Sample one;
  one.push(7.0);
  const auto degenerate = wu::BootstrapCI::of_quantile(one, 0.5, 0.95, 100, 1);
  EXPECT_DOUBLE_EQ(degenerate.lo, 7.0);
  EXPECT_DOUBLE_EQ(degenerate.hi, 7.0);
}

TEST(BootstrapCI, NarrowsWithSampleSize) {
  wu::Sample small_sample, big;
  for (int i = 0; i < 10; ++i) small_sample.push((i * 13) % 20);
  for (int i = 0; i < 1000; ++i) big.push((i * 13) % 20);
  const auto ci_small = wu::BootstrapCI::of_mean(small_sample, 0.95, 800, 3);
  const auto ci_big = wu::BootstrapCI::of_mean(big, 0.95, 800, 3);
  EXPECT_LT(ci_big.hi - ci_big.lo, ci_small.hi - ci_small.lo);
}
