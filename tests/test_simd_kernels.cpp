/// util/simd kernel suite: the runtime-dispatched table (AVX-512/AVX2/NEON
/// when built and supported, scalar otherwise) must match a naive
/// reference — and the scalar table — bit for bit on randomized inputs, so
/// engine results never depend on the host ISA.  hash_below's scalar twin
/// is held to util::hash_combine, draw_lanes' to util::Rng::uniform,
/// bursty_lanes' to util::Rng::bernoulli, and every compiled rung to the
/// twin.  Also pins the force-scalar override,
/// draw_lanes' rejection flag and the first_set_below edge cases the
/// engines rely on.

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <string>
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

const std::uint64_t kLaneBounds[] = {2, 3, 48, (std::uint64_t{1} << 32) - 1};

/// Eight lanes in draw_lanes' layout, lane l seeded as Xoshiro256ss(seed + l).
std::array<std::uint64_t, 32> lane_states(std::uint64_t seed) {
  std::array<std::uint64_t, 32> state{};
  for (std::size_t l = 0; l < 8; ++l) {
    const wu::Xoshiro256ss lane(seed + l);
    for (std::size_t w = 0; w < 4; ++w) state[8 * w + l] = lane.state()[w];
  }
  return state;
}

struct LaneDraws {
  std::vector<std::uint32_t> out;
  std::array<std::uint64_t, 32> state;
  bool flagged;
};

LaneDraws draw_lanes_through(const simd::Kernels& table, std::array<std::uint64_t, 32> state,
                             std::uint64_t bound, std::size_t rounds) {
  LaneDraws draws{std::vector<std::uint32_t>(8 * rounds, 0xdeadbeef), state, false};
  draws.flagged = table.draw_lanes(draws.state.data(), bound, rounds, draws.out.data());
  return draws;
}

}  // namespace

TEST(SimdKernels, DrawLanesScalarTwinMatchesUniform) {
  const simd::Kernels& scalar = *scalar_and_best().scalar;
  for (const std::uint64_t bound : kLaneBounds) {
    const LaneDraws draws = draw_lanes_through(scalar, lane_states(bound), bound, 300);
    // No flag: no draw of these streams is one uniform could reject.
    ASSERT_FALSE(draws.flagged) << "bound " << bound;
    for (std::size_t l = 0; l < 8; ++l) {
      wu::Rng rng(bound + l);
      for (std::size_t d = 0; d < 300; ++d) {
        ASSERT_EQ(draws.out[8 * d + l], rng.uniform(bound)) << "bound " << bound << " lane " << l;
      }
      wu::Xoshiro256ss stepped(bound + l);
      for (std::size_t d = 0; d < 300; ++d) (void)stepped.next();
      for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(draws.state[8 * w + l], stepped.state()[w]);
    }
  }
}

TEST(SimdKernels, DrawLanesAvx512MatchesScalarTwin) {
  const Tables tables = scalar_and_best();
  if (std::strcmp(tables.best->name, "avx512") != 0) {
    GTEST_SKIP() << "AVX-512F/DQ rung not built or not supported here (dispatching "
                 << tables.best->name << ")";
  }
  for (const std::uint64_t bound : kLaneBounds) {
    for (const std::size_t rounds : {0, 1, 5, 300}) {
      const auto state = lane_states(7 * bound + rounds);
      const LaneDraws want = draw_lanes_through(*tables.scalar, state, bound, rounds);
      const LaneDraws got = draw_lanes_through(*tables.best, state, bound, rounds);
      EXPECT_EQ(got.out, want.out) << "bound " << bound << " rounds " << rounds;
      EXPECT_EQ(got.state, want.state) << "bound " << bound << " rounds " << rounds;
      EXPECT_EQ(got.flagged, want.flagged) << "bound " << bound << " rounds " << rounds;
    }
  }
}

TEST(SimdKernels, DrawLanesFlagsALowWordBelowTheBound) {
  // s1 = 0 makes a lane's next output rotl(0 · 5, 7) · 9 = 0, whose low
  // word 0 is below every bound: the draw Rng::uniform would reject.
  const Tables tables = scalar_and_best();
  for (const simd::Kernels* table : {tables.scalar, tables.best}) {
    for (const std::uint64_t bound : kLaneBounds) {
      auto state = lane_states(bound);
      state[8 * 1 + 5] = 0;  // lane 5's s1
      const LaneDraws draws = draw_lanes_through(*table, state, bound, 3);
      EXPECT_TRUE(draws.flagged) << table->name << " bound " << bound;
      EXPECT_EQ(draws.out[5], 0u) << table->name << " bound " << bound;
      // The same lanes without the crafted state raise nothing.
      EXPECT_FALSE(draw_lanes_through(*table, lane_states(bound), bound, 3).flagged);
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
