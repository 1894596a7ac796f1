/// util/simd kernel suite: the runtime-dispatched table (AVX-512/AVX2/NEON
/// when built and supported, scalar otherwise) must match a naive
/// reference — and the scalar table — bit for bit on randomized inputs, so
/// engine results never depend on the host ISA.  hash_below's scalar twin
/// is held to util::hash_combine, the bootstrap entries' twins to
/// util::Rng::uniform and a sort, bursty_lanes' to util::Rng::bernoulli,
/// and every compiled rung to the twin.  Also pins the force-scalar
/// override, the bootstrap entries' rejection flag and the draws near a
/// carry that their fast index reduction recomputes, and the
/// first_set_below edge cases the engines rely on.

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace simd = wakeup::util::simd;
namespace wu = wakeup::util;

namespace {

/// Restores the dispatch table after a test that pins the scalar one.
struct KernelGuard {
  ~KernelGuard() { simd::set_force_scalar(false); }
};

struct Reduced {
  std::vector<std::uint64_t> any;
  std::vector<std::uint64_t> multi;
};

Reduced reference_reduce(const std::vector<std::uint64_t>& matrix, std::size_t rows,
                         std::size_t stride, std::size_t words) {
  Reduced out;
  out.any.assign(words, 0);
  out.multi.assign(words, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t v = matrix[r * stride + w];
      out.multi[w] |= out.any[w] & v;
      out.any[w] |= v;
    }
  }
  return out;
}

std::vector<std::uint64_t> random_words(wu::Rng& rng, std::size_t count, int density_shift) {
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) {
    w = rng.next_u64();
    // Sparser bits exercise the any/multi distinction, not just saturation.
    for (int d = 0; d < density_shift; ++d) w &= rng.next_u64();
  }
  return words;
}

}  // namespace

TEST(SimdKernels, OrReduceMatchesReferenceAcrossShapes) {
  // Folding rows one at a time through or_accumulate must equal the
  // reference reduction at every tile width — the tile core reduces each
  // lane, and re-reduces mid-tile after a winner's row changes, this way.
  KernelGuard guard;
  wu::Rng rng(20130522);
  for (const bool force_scalar : {false, true}) {
    simd::set_force_scalar(force_scalar);
    for (const std::size_t rows : {0u, 1u, 2u, 3u, 7u, 16u, 33u}) {
      for (const std::size_t words : {1u, 2u, 3u, 4u, 5u, 7u, 8u}) {
        const std::size_t stride = 8;
        const auto matrix = random_words(rng, std::max<std::size_t>(rows, 1) * stride, 1);
        const Reduced want = reference_reduce(matrix, rows, stride, words);
        std::vector<std::uint64_t> any(words, 0);
        std::vector<std::uint64_t> multi(words, 0);
        for (std::size_t r = 0; r < rows; ++r) {
          simd::active().or_accumulate(any.data(), multi.data(), matrix.data() + r * stride,
                                       words);
        }
        EXPECT_EQ(any, want.any) << "rows=" << rows << " words=" << words
                                 << " scalar=" << force_scalar;
        EXPECT_EQ(multi, want.multi) << "rows=" << rows << " words=" << words
                                     << " scalar=" << force_scalar;
      }
    }
  }
}

TEST(SimdKernels, MaskedPopcountPairMatchesReference) {
  KernelGuard guard;
  wu::Rng rng(99);
  for (const bool force_scalar : {false, true}) {
    simd::set_force_scalar(force_scalar);
    for (const std::size_t words : {1u, 2u, 4u, 5u, 8u, 16u, 31u}) {
      const auto any = random_words(rng, words, 1);
      const auto multi = random_words(rng, words, 2);
      const auto mask = random_words(rng, words, 0);
      std::uint64_t want_sil = 0, want_col = 0;
      for (std::size_t w = 0; w < words; ++w) {
        want_sil += static_cast<std::uint64_t>(std::popcount(~any[w] & mask[w]));
        want_col += static_cast<std::uint64_t>(std::popcount(multi[w] & mask[w]));
      }
      // Accumulating: the kernel adds to pre-existing totals.
      std::uint64_t sil = 5, col = 11;
      simd::active().masked_popcount_pair(any.data(), multi.data(), mask.data(), words, &sil,
                                          &col);
      EXPECT_EQ(sil, want_sil + 5) << "words=" << words << " scalar=" << force_scalar;
      EXPECT_EQ(col, want_col + 11) << "words=" << words << " scalar=" << force_scalar;
    }
  }
}

TEST(SimdKernels, FirstSetBelowEdges) {
  const std::uint64_t none[4] = {0, 0, 0, 0};
  EXPECT_EQ(simd::first_set_below(none, 4, 256), simd::kNoBit);
  EXPECT_EQ(simd::first_set_below(none, 0, 64), simd::kNoBit);

  std::uint64_t words[4] = {0, 0, 1ull << 5, 1ull};
  EXPECT_EQ(simd::first_set_below(words, 4, 256), 128u + 5u);
  // The qualifying bit sits exactly at the limit: excluded.
  EXPECT_EQ(simd::first_set_below(words, 4, 133), simd::kNoBit);
  EXPECT_EQ(simd::first_set_below(words, 4, 134), 133u);
  // Limit inside an earlier word: later words must not be scanned past it.
  EXPECT_EQ(simd::first_set_below(words, 4, 64), simd::kNoBit);
  // n_words clips before the limit does.
  EXPECT_EQ(simd::first_set_below(words, 2, 256), simd::kNoBit);

  words[0] = 1ull << 63;
  EXPECT_EQ(simd::first_set_below(words, 4, 256), 63u);
  EXPECT_EQ(simd::first_set_below(words, 4, 63), simd::kNoBit);
}

namespace {

/// Random windows for hash_below: random prefixes, and bounds mixing the
/// edges (0, 1, 2^63, 2^64 − 1) with the matrix's 2^(64 − e) and random
/// values.
void random_window(wu::Rng& rng, std::uint64_t* prefix, std::uint64_t* bound) {
  for (unsigned j = 0; j < 64; ++j) {
    prefix[j] = rng.next_u64();
    switch (rng.next_u64() % 6) {
      case 0: bound[j] = 0; break;
      case 1: bound[j] = std::uint64_t{1} << 63; break;
      case 2: bound[j] = std::uint64_t{1} << (1 + rng.next_u64() % 63); break;
      case 3: bound[j] = j % 2 == 0 ? 1 : ~std::uint64_t{0}; break;
      default: bound[j] = rng.next_u64(); break;
    }
  }
}

/// hash_below through `table`.
std::vector<std::uint64_t> hash_words_through(const simd::Kernels& table,
                                              const std::uint64_t* prefix,
                                              const std::uint64_t* bound,
                                              const std::vector<std::uint64_t>& keys) {
  std::vector<std::uint64_t> out(keys.size(), 0xdeadbeef);
  table.hash_below(prefix, bound, keys.data(), keys.size(), out.data());
  return out;
}

/// The scalar table and the one the CPU dispatches to.
struct Tables {
  const simd::Kernels* scalar;
  const simd::Kernels* best;
};

Tables scalar_and_best() {
  KernelGuard guard;
  simd::set_force_scalar(true);
  const simd::Kernels* scalar = &simd::active();
  simd::set_force_scalar(false);
  return {scalar, &simd::active()};
}

/// `rung` against the scalar twin on random windows, for 0, 1 and 70 keys
/// (past one 64-key pass).
void expect_rung_matches_scalar(const simd::Kernels& rung, const simd::Kernels& scalar) {
  wu::Rng rng(29);
  for (int round = 0; round < 50; ++round) {
    std::uint64_t prefix[64];
    std::uint64_t bound[64];
    random_window(rng, prefix, bound);
    std::vector<std::uint64_t> keys(70);
    for (auto& key : keys) key = rng.next_u64();
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, keys.size()}) {
      const std::vector<std::uint64_t> some(keys.begin(),
                                            keys.begin() + static_cast<std::ptrdiff_t>(count));
      EXPECT_EQ(hash_words_through(rung, prefix, bound, some),
                hash_words_through(scalar, prefix, bound, some))
          << rung.name << " round " << round << " count " << count;
    }
  }
}

}  // namespace

TEST(SimdKernels, HashBelowScalarTwinMatchesHashCombine) {
  const simd::Kernels& scalar = *scalar_and_best().scalar;
  wu::Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    std::uint64_t prefix[64];
    std::uint64_t bound[64];
    random_window(rng, prefix, bound);
    std::vector<std::uint64_t> keys(70);
    for (auto& key : keys) key = wu::mix64(rng.next_u64());
    const auto words = hash_words_through(scalar, prefix, bound, keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::uint64_t want = 0;
      for (unsigned j = 0; j < 64; ++j) {
        want |= static_cast<std::uint64_t>(wu::hash_combine(prefix[j], keys[i]) < bound[j]) << j;
      }
      ASSERT_EQ(words[i], want) << "round " << round << " key " << i;
    }
  }
}

// The AVX2 and NEON tables carry the scalar twin itself; the dispatched
// table is the one rung that can differ from it.
TEST(SimdKernels, HashBelowDispatchedRungMatchesScalarTwin) {
  const Tables tables = scalar_and_best();
  expect_rung_matches_scalar(*tables.best, *tables.scalar);
}

TEST(SimdKernels, HashBelowAvx512MatchesScalarTwin) {
  const Tables tables = scalar_and_best();
  if (std::strcmp(tables.best->name, "avx512") != 0) {
    GTEST_SKIP() << "AVX-512F/DQ rung not built or not supported here (dispatching "
                 << tables.best->name << ")";
  }
  expect_rung_matches_scalar(*tables.best, *tables.scalar);
}

namespace {

/// Eight lanes in the kernels' state layout, lane l seeded as
/// Xoshiro256ss(seed + l).
std::array<std::uint64_t, 32> lane_states(std::uint64_t seed) {
  std::array<std::uint64_t, 32> state{};
  for (std::size_t l = 0; l < 8; ++l) {
    const wu::Xoshiro256ss lane(seed + l);
    for (std::size_t w = 0; w < 4; ++w) state[8 * w + l] = lane.state()[w];
  }
  return state;
}

/// What resampled_means leaves behind for K samples.
struct MeanDraws {
  std::vector<std::vector<double>> means;
  std::array<std::uint64_t, 32> state;
  bool flagged;
};

MeanDraws means_through(const simd::Kernels& table, std::array<std::uint64_t, 32> state,
                        const std::vector<std::vector<double>>& samples, std::size_t steps) {
  MeanDraws draws{std::vector<std::vector<double>>(samples.size(),
                                                   std::vector<double>(8 * steps, -1.0)),
                  state, false};
  std::vector<const double*> values;
  std::vector<double*> out;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    values.push_back(samples[k].data());
    out.push_back(draws.means[k].data());
  }
  draws.flagged = table.resampled_means(draws.state.data(), values.data(), samples.size(),
                                        samples[0].size(), steps, out.data());
  return draws;
}

/// What resampled_quantile leaves behind.
struct QuantileDraws {
  std::vector<std::size_t> lo;
  std::vector<std::size_t> hi;
  std::array<std::uint64_t, 32> state;
  bool flagged;
};

/// A sample's tie classes as the kernel reads them.
struct Classes {
  std::vector<std::size_t> of;  // class of each value
  std::size_t count;
};

/// n values over `count` classes, every class present (count <= n), in a
/// seeded order.
Classes shuffled_classes(std::size_t n, std::size_t count, std::uint64_t seed) {
  Classes classes{std::vector<std::size_t>(n), count};
  for (std::size_t i = 0; i < n; ++i) classes.of[i] = i % count;
  wu::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(classes.of[i - 1], classes.of[rng.uniform(i)]);
  return classes;
}

QuantileDraws quantile_through(const simd::Kernels& table, std::array<std::uint64_t, 32> state,
                               const Classes& classes, std::size_t rank_lo, std::size_t rank_hi,
                               std::size_t steps) {
  QuantileDraws draws{std::vector<std::size_t>(8 * steps, 9999),
                      std::vector<std::size_t>(8 * steps, 9999), state, false};
  draws.flagged = table.resampled_quantile(draws.state.data(), classes.of.data(), classes.count,
                                           classes.of.size(), rank_lo, rank_hi, steps,
                                           draws.lo.data(), draws.hi.data());
  return draws;
}

/// n values i + 1/4, so that a resampled mean tells an index from its
/// neighbours; the second sample is real-valued.
std::vector<std::vector<double>> mean_samples(std::size_t n, std::size_t samples) {
  std::vector<std::vector<double>> out(samples, std::vector<double>(n));
  wu::Rng rng(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[0][i] = static_cast<double>(i) + 0.25;
    if (samples > 1) out[1][i] = (rng.uniform01() - 0.4) * 1e3;
  }
  return out;
}

/// The class ranks of one resample, from its draws' classes: the classes
/// holding the order statistics at ranks lo and hi.
std::pair<std::size_t, std::size_t> naive_ranks(std::vector<std::size_t> drawn, std::size_t lo,
                                                std::size_t hi) {
  std::sort(drawn.begin(), drawn.end());
  return {drawn[lo], drawn[hi]};
}

const std::size_t kResampleSizes[] = {2, 3, 16, 17, 32, 48, 63, 64, 65, 257};
const std::size_t kClassCounts[] = {1, 2, 63, 64, 65};
const std::size_t kSteps[] = {0, 1, 5, 250};
/// Quantile positions p, as (rank lo, rank hi) = (⌊p(n − 1)⌋, min(lo + 1, n − 1)).
const double kPositions[] = {0.0, 0.5, 0.95, 1.0};

std::pair<std::size_t, std::size_t> spot_ranks(std::size_t n, double p) {
  const auto lo = static_cast<std::size_t>(p * static_cast<double>(n - 1));
  return {lo, std::min(lo + 1, n - 1)};
}

/// The first output of Xoshiro256ss is rotl(s1·5, 7)·9: the lane state
/// whose next draw is x, with the other words taken from `state`.
std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t inverse = a;  // a·a ≡ 1 mod 8; each step doubles the bits
  for (int i = 0; i < 5; ++i) inverse *= 2 - a * inverse;
  return inverse;
}

void set_next_output(std::array<std::uint64_t, 32>& state, std::size_t lane, std::uint64_t x) {
  state[8 + lane] = std::rotr(x * inverse_odd(9), 7) * inverse_odd(5);
}

/// For n not a power of two, with g the largest power of two dividing n:
/// the xh whose A = xh·n has low half 2³² − g >= 2³² − n + 1, so that the
/// index ⌊x·n / 2⁶⁴⌋ is not A >> 32 when xl·n carries into A.
std::uint64_t rare_high_half(std::uint64_t n) {
  const std::uint64_t g = n & (~n + 1);
  const std::uint64_t modulus = (std::uint64_t{1} << 32) / g;
  return ((std::uint64_t{1} << 32) - g) / g * inverse_odd(n / g) % modulus;
}

}  // namespace

TEST(SimdKernels, ResampledMeansScalarTwinMatchesUniform) {
  const simd::Kernels& scalar = *scalar_and_best().scalar;
  for (const std::size_t n : {std::size_t{2}, std::size_t{48}, std::size_t{65537}}) {
    for (const std::size_t samples : {1u, 2u}) {
      const auto values = mean_samples(n, samples);
      const std::size_t steps = n > 1000 ? 2 : 40;
      const MeanDraws draws = means_through(scalar, lane_states(n), values, steps);
      // No flag: no draw of these streams is one uniform could reject.
      ASSERT_FALSE(draws.flagged) << "n " << n;
      for (std::size_t l = 0; l < 8; ++l) {
        wu::Rng rng(n + l);
        for (std::size_t step = 0; step < steps; ++step) {
          std::vector<double> sum(samples, 0.0);
          for (std::size_t d = 0; d < n; ++d) {
            const std::size_t j = rng.uniform(n);
            for (std::size_t k = 0; k < samples; ++k) sum[k] += values[k][j];
          }
          for (std::size_t k = 0; k < samples; ++k) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(draws.means[k][l * steps + step]),
                      std::bit_cast<std::uint64_t>(sum[k] / static_cast<double>(n)))
                << "n " << n << " lane " << l << " step " << step << " sample " << k;
          }
        }
        for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(draws.state[8 * w + l], rng.state()[w]);
      }
    }
  }
}

TEST(SimdKernels, ResampledQuantileScalarTwinMatchesUniform) {
  const simd::Kernels& scalar = *scalar_and_best().scalar;
  for (const std::size_t n : {std::size_t{2}, std::size_t{48}, std::size_t{65537}}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{2}, n}) {
      const Classes classes = shuffled_classes(n, count, 3 * n + count);
      const auto [rank_lo, rank_hi] = spot_ranks(n, 0.5);
      const std::size_t steps = n > 1000 ? 2 : 40;
      const QuantileDraws draws =
          quantile_through(scalar, lane_states(n + count), classes, rank_lo, rank_hi, steps);
      ASSERT_FALSE(draws.flagged) << "n " << n;
      for (std::size_t l = 0; l < 8; ++l) {
        wu::Rng rng(n + count + l);
        for (std::size_t step = 0; step < steps; ++step) {
          std::vector<std::size_t> drawn(n);
          for (std::size_t d = 0; d < n; ++d) drawn[d] = classes.of[rng.uniform(n)];
          const auto want = naive_ranks(std::move(drawn), rank_lo, rank_hi);
          ASSERT_EQ(draws.lo[l * steps + step], want.first) << "n " << n << " lane " << l;
          ASSERT_EQ(draws.hi[l * steps + step], want.second) << "n " << n << " lane " << l;
        }
        for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(draws.state[8 * w + l], rng.state()[w]);
      }
    }
  }
}

TEST(SimdKernels, ResampledMeansAvx512MatchesScalarTwin) {
  const Tables tables = scalar_and_best();
  if (tables.best->resampled_means == tables.scalar->resampled_means) {
    GTEST_SKIP() << "no AVX-512 resampled_means built or supported here (dispatching "
                 << tables.best->name << ")";
  }
  for (const std::size_t n : kResampleSizes) {
    for (const std::size_t samples : {1u, 2u}) {
      const auto values = mean_samples(n, samples);
      for (const std::size_t steps : kSteps) {
        const auto state = lane_states(7 * n + steps + samples);
        const MeanDraws want = means_through(*tables.scalar, state, values, steps);
        const MeanDraws got = means_through(*tables.best, state, values, steps);
        for (std::size_t k = 0; k < samples; ++k) {
          for (std::size_t r = 0; r < 8 * steps; ++r) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got.means[k][r]),
                      std::bit_cast<std::uint64_t>(want.means[k][r]))
                << "n " << n << " samples " << samples << " steps " << steps << " at " << r;
          }
        }
        EXPECT_EQ(got.state, want.state) << "n " << n << " steps " << steps;
        EXPECT_EQ(got.flagged, want.flagged) << "n " << n << " steps " << steps;
      }
    }
  }
}

TEST(SimdKernels, ResampledQuantileAvx512MatchesScalarTwin) {
  const Tables tables = scalar_and_best();
  if (tables.best->resampled_quantile == tables.scalar->resampled_quantile) {
    GTEST_SKIP() << "no AVX-512BW/VBMI resampled_quantile built or supported here (dispatching "
                 << tables.best->name << ")";
  }
  for (const std::size_t n : kResampleSizes) {
    for (const std::size_t count : kClassCounts) {
      if (count > n) continue;
      const Classes classes = shuffled_classes(n, count, n + count);
      for (const double p : kPositions) {
        const auto [rank_lo, rank_hi] = spot_ranks(n, p);
        for (const std::size_t steps : kSteps) {
          const auto state = lane_states(11 * n + count + steps);
          const QuantileDraws want =
              quantile_through(*tables.scalar, state, classes, rank_lo, rank_hi, steps);
          const QuantileDraws got =
              quantile_through(*tables.best, state, classes, rank_lo, rank_hi, steps);
          const std::string label = "n " + std::to_string(n) + " classes " +
                                    std::to_string(count) + " p " + std::to_string(p) +
                                    " steps " + std::to_string(steps);
          EXPECT_EQ(got.lo, want.lo) << label;
          EXPECT_EQ(got.hi, want.hi) << label;
          EXPECT_EQ(got.state, want.state) << label;
          EXPECT_EQ(got.flagged, want.flagged) << label;
        }
      }
    }
  }
}

TEST(SimdKernels, ResampledEntriesFlagALowWordBelowTheBound) {
  // s1 = 0 makes a lane's next output rotl(0 · 5, 7) · 9 = 0, whose low
  // word 0 is below every bound: the draw Rng::uniform would reject.
  const Tables tables = scalar_and_best();
  for (const simd::Kernels* table : {tables.scalar, tables.best}) {
    for (const std::size_t n : {std::size_t{3}, std::size_t{48}, std::size_t{65}}) {
      const auto values = mean_samples(n, 2);
      const Classes classes = shuffled_classes(n, std::min<std::size_t>(n, 40), n);
      auto state = lane_states(n);
      state[8 * 1 + 5] = 0;  // lane 5's s1
      const MeanDraws means = means_through(*table, state, values, 3);
      EXPECT_TRUE(means.flagged) << table->name << " n " << n;
      EXPECT_TRUE(quantile_through(*table, state, classes, n / 2, n / 2 + 1, 3).flagged)
          << table->name << " n " << n;
      EXPECT_EQ(means.means, means_through(*tables.scalar, state, values, 3).means);
      // The same lanes without the crafted state raise nothing.
      EXPECT_FALSE(means_through(*table, lane_states(n), values, 3).flagged);
      EXPECT_FALSE(quantile_through(*table, lane_states(n), classes, n / 2, n / 2 + 1, 3).flagged);
    }
  }
}

TEST(SimdKernels, ResampledEntriesResolveDrawsNearAProductCarry) {
  // Lane 2's first draw has xh·n's low half at 2³² − g: with xl = 2³² − 1
  // the index carries past (xh·n) >> 32 and uniform accepts it, and with
  // xl = ⌈g·2³²/n⌉ its low word is below n, a draw uniform may reject.  Every
  // table must give the exact index and flag exactly the second.
  const Tables tables = scalar_and_best();
  for (const std::uint64_t n : {3u, 48u, 63u}) {
    const std::uint64_t xh = rare_high_half(n);
    const std::uint64_t g = n & (~n + 1);
    ASSERT_EQ(xh * n % (std::uint64_t{1} << 32), (std::uint64_t{1} << 32) - g) << "n " << n;
    const auto values = mean_samples(n, 1);
    const Classes classes = shuffled_classes(n, n, n);
    for (const bool rejectable : {false, true}) {
      const std::uint64_t xl =
          rejectable ? ((g << 32) + n - 1) / n : (std::uint64_t{1} << 32) - 1;
      const std::uint64_t x = (xh << 32) | xl;
      auto state = lane_states(5 * n);
      set_next_output(state, 2, x);
      const auto index = static_cast<std::size_t>((static_cast<__uint128_t>(x) * n) >> 64);
      ASSERT_EQ(index, ((xh * n) >> 32) + 1) << "n " << n;
      const MeanDraws want = means_through(*tables.scalar, state, values, 1);
      const QuantileDraws want_classes = quantile_through(*tables.scalar, state, classes, 0, 1, 1);
      EXPECT_EQ(want.flagged, rejectable) << "n " << n;
      // The scalar twin's first draw of lane 2 is the index above.
      wu::Xoshiro256ss lane({state[2], state[10], state[18], state[26]});
      ASSERT_EQ(lane.next(), x);
      for (const simd::Kernels* table : {tables.scalar, tables.best}) {
        const MeanDraws got = means_through(*table, state, values, 1);
        EXPECT_EQ(got.means, want.means) << table->name << " n " << n;
        EXPECT_EQ(got.flagged, rejectable) << table->name << " n " << n;
        const QuantileDraws got_classes = quantile_through(*table, state, classes, 0, 1, 1);
        EXPECT_EQ(got_classes.lo, want_classes.lo) << table->name << " n " << n;
        EXPECT_EQ(got_classes.hi, want_classes.hi) << table->name << " n " << n;
        EXPECT_EQ(got_classes.flagged, rejectable) << table->name << " n " << n;
      }
    }
  }
}

namespace {

/// What bursty_lanes leaves behind.
struct BurstyDraws {
  std::vector<std::uint8_t> out;
  std::array<std::uint64_t, 32> state;
  std::uint8_t on;
};

simd::LaneCoin lane_coin(double p) {
  const bool draws = !(p <= 0.0) && !(p >= 1.0);
  return {draws ? wu::bernoulli_threshold(p) : 0, draws, p >= 1.0};
}

BurstyDraws bursty_lanes_through(const simd::Kernels& table, std::array<std::uint64_t, 32> state,
                                 std::uint8_t live, std::uint8_t on, double p_on,
                                 double switch_p, std::size_t slots) {
  BurstyDraws draws{std::vector<std::uint8_t>(slots, 0xa5), state, on};
  table.bursty_lanes(draws.state.data(), live, &draws.on, lane_coin(p_on), lane_coin(switch_p),
                     slots, draws.out.data());
  return draws;
}

/// Every (p_on, switch probability) pair the kernel distinguishes: coins
/// that draw, p_on = 1 (on lanes always arrive, no draw) and switch
/// probability 1 (lanes always flip, no draw).
struct BurstyCase {
  double p_on, switch_p;
};
const BurstyCase kBurstyCases[] = {{0.05, 0.05}, {0.8, 0.3}, {1.0, 0.05}, {0.3, 1.0}, {1.0, 1.0}};
const std::uint8_t kLiveMasks[] = {0x01, 0x1f, 0xff};
const std::uint8_t kOnMasks[] = {0x00, 0x5a, 0xff};
const std::size_t kBurstySlots[] = {1, 63, 64, 65, 2048};

}  // namespace

// Per station: util::Rng's own coins, slot by slot, from each lane's state.
TEST(SimdKernels, BurstyLanesScalarTwinMatchesPerStationReference) {
  const simd::Kernels& scalar = *scalar_and_best().scalar;
  for (const BurstyCase& c : kBurstyCases) {
    for (const std::uint8_t live : kLiveMasks) {
      for (const std::uint8_t on : kOnMasks) {
        for (const std::size_t slots : kBurstySlots) {
          const std::uint64_t seed = 100 * slots + live;
          std::array<std::uint64_t, 32> state{};
          for (std::size_t l = 0; l < 8; ++l) {
            const wu::Rng lane(seed + l);
            for (std::size_t w = 0; w < 4; ++w) state[8 * w + l] = lane.state()[w];
          }
          const BurstyDraws got =
              bursty_lanes_through(scalar, state, live, on, c.p_on, c.switch_p, slots);
          const std::string label = "p_on " + std::to_string(c.p_on) + " switch " +
                                    std::to_string(c.switch_p) + " live " +
                                    std::to_string(live) + " on " + std::to_string(on) +
                                    " slots " + std::to_string(slots);
          for (std::size_t l = 0; l < 8; ++l) {
            const auto bit = static_cast<std::uint8_t>(1u << l);
            wu::Rng rng(seed + l);
            bool lane_on = (on & bit) != 0;
            for (std::size_t t = 0; t < slots; ++t) {
              bool arrived = false;
              if ((live & bit) != 0) {
                arrived = lane_on && rng.bernoulli(c.p_on);
                if (rng.bernoulli(c.switch_p)) lane_on = !lane_on;
              }
              ASSERT_EQ((got.out[t] & bit) != 0, arrived) << label << " lane " << l << " t " << t;
            }
            EXPECT_EQ((got.on & bit) != 0, lane_on) << label << " lane " << l;
            for (std::size_t w = 0; w < 4; ++w) {
              EXPECT_EQ(got.state[8 * w + l], rng.state()[w]) << label << " lane " << l;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, BurstyLanesAvx512MatchesScalarTwin) {
  const Tables tables = scalar_and_best();
  if (std::strcmp(tables.best->name, "avx512") != 0) {
    GTEST_SKIP() << "AVX-512F/DQ rung not built or not supported here (dispatching "
                 << tables.best->name << ")";
  }
  for (const BurstyCase& c : kBurstyCases) {
    for (const std::uint8_t live : kLiveMasks) {
      for (const std::uint8_t on : kOnMasks) {
        for (const std::size_t slots : kBurstySlots) {
          const auto state = lane_states(31 * slots + live + on);
          const BurstyDraws want =
              bursty_lanes_through(*tables.scalar, state, live, on, c.p_on, c.switch_p, slots);
          const BurstyDraws got =
              bursty_lanes_through(*tables.best, state, live, on, c.p_on, c.switch_p, slots);
          const std::string label = "p_on " + std::to_string(c.p_on) + " switch " +
                                    std::to_string(c.switch_p) + " live " +
                                    std::to_string(live) + " on " + std::to_string(on) +
                                    " slots " + std::to_string(slots);
          EXPECT_EQ(got.out, want.out) << label;
          EXPECT_EQ(got.state, want.state) << label;
          EXPECT_EQ(got.on, want.on) << label;
        }
      }
    }
  }
}

TEST(SimdKernels, ForceScalarPinsTheScalarTable) {
  KernelGuard guard;
  simd::set_force_scalar(true);
  EXPECT_STREQ(simd::active_name(), "scalar");
  simd::set_force_scalar(false);
  // Whatever the build/CPU supports — never empty, and stable across calls.
  EXPECT_STRNE(simd::active_name(), "");
  EXPECT_STREQ(simd::active_name(), simd::active().name);
}
