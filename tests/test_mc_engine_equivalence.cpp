/// C-channel engine equivalence: the multichannel batch engine must
/// produce bit-identical McSimResults — every counter: successes,
/// silences, collisions, success_channel, winner — to the slot-by-slot
/// multichannel interpreter, across the three native strategies (striped
/// round-robin, group wait_and_go, channel-0 adapter) over seeded trials,
/// including budget-exhaustion runs.  Also checks the channel-aware
/// ObliviousSchedule capability contract action for action against the
/// McStationRuntime.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "protocols/multichannel.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/rpd.hpp"
#include "protocols/wait_and_go.hpp"
#include "sim/batch_engine.hpp"
#include "sim/mc_batch_engine.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;

namespace {

void expect_identical(const ws::McSimResult& a, const ws::McSimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.s, b.s) << label;
  EXPECT_EQ(a.success_slot, b.success_slot) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.success_channel, b.success_channel) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.silences, b.silences) << label;
  EXPECT_EQ(a.successes, b.successes) << label;
}

ws::McSimResult run_mc(const wp::McProtocol& protocol, const wm::WakePattern& pattern,
                       ws::Engine engine, wm::Slot max_slots = 0) {
  return ws::Run({.mc_protocol = &protocol,
                  .pattern = &pattern,
                  .sim = {.max_slots = max_slots, .engine = engine}})
      .mc;
}

/// The native strategies under test, each with its channel counts.
struct Strategy {
  std::string label;
  wp::McProtocolPtr protocol;
};

std::vector<Strategy> native_strategies(std::uint32_t n, std::uint32_t k) {
  std::vector<Strategy> out;
  for (const std::uint32_t c : {1u, 3u, 8u}) {
    out.push_back({"striped_rr/C=" + std::to_string(c), wp::make_striped_round_robin(n, c)});
  }
  for (const std::uint32_t c : {2u, 4u}) {
    out.push_back({"group_wag/C=" + std::to_string(c),
                   wp::make_group_wait_and_go(n, k, c, wakeup::comb::FamilyKind::kRandomized,
                                              20130522)});
  }
  out.push_back({"adapter(round_robin)/C=3",
                 wp::make_single_channel_adapter(std::make_shared<wp::RoundRobinProtocol>(n), 3)});
  out.push_back({"adapter(wait_and_go)/C=4",
                 wp::make_single_channel_adapter(
                     wp::make_wait_and_go(n, k, wakeup::comb::FamilyKind::kRandomized, 7), 4)});
  return out;
}

}  // namespace

TEST(McEngineEquivalence, BitIdenticalAcrossSeededTrials) {
  const std::uint32_t n = 96, k = 12;
  const auto& kinds = wm::patterns::all_kinds();
  std::uint64_t checked = 0;
  for (const Strategy& strategy : native_strategies(n, k)) {
    ASSERT_TRUE(ws::mc_batch_supports(*strategy.protocol)) << strategy.label;
    for (const auto kind : kinds) {
      for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const std::uint64_t seed = wu::hash_words(
            {0x4d435151ULL /* "MCQQ" */, static_cast<std::uint64_t>(kind), trial});
        wu::Rng rng(seed);
        const auto pattern = wm::patterns::generate(kind, n, k, 3, rng);
        const std::string label = strategy.label + " kind=" +
                                  std::string(wm::patterns::kind_name(kind)) + " trial=" +
                                  std::to_string(trial);
        const auto reference = run_mc(*strategy.protocol, pattern, ws::Engine::kInterpreter);
        expect_identical(reference, run_mc(*strategy.protocol, pattern, ws::Engine::kBatch),
                         label + " batch");
        expect_identical(reference, run_mc(*strategy.protocol, pattern, ws::Engine::kAuto),
                         label + " auto");
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 100u);
}

TEST(McEngineEquivalence, BudgetExhaustionCountersMatch) {
  // Failure paths must agree on every counter too — all engines walk the
  // full budget and count every channel-slot.
  const std::uint32_t n = 64;
  for (const Strategy& strategy : native_strategies(n, 8)) {
    wu::Rng rng(11);
    const auto pattern = wm::patterns::simultaneous(n, 8, 5, rng);
    for (const wm::Slot budget : {1, 2, 63, 64, 65, 130}) {
      const std::string label = strategy.label + " budget=" + std::to_string(budget);
      const auto reference =
          run_mc(*strategy.protocol, pattern, ws::Engine::kInterpreter, budget);
      expect_identical(reference,
                       run_mc(*strategy.protocol, pattern, ws::Engine::kBatch, budget),
                       label + " batch");
      expect_identical(reference,
                       run_mc(*strategy.protocol, pattern, ws::Engine::kAuto, budget),
                       label + " auto");
    }
  }
}

/// SIMD vs scalar-fallback bit-identity across tile widths for the
/// C-channel engine: every strategy (striped RR, group WAG, channel-0
/// adapter), every counter, including budget-exhaustion runs straddling
/// the tile ramp boundaries.
TEST(McEngineEquivalence, TileWidthsAndKernelsBitIdentical) {
  struct Guard {
    ~Guard() {
      ws::set_tile_words(0);
      wakeup::util::simd::set_force_scalar(false);
    }
  } guard;
  const std::uint32_t n = 96, k = 12;
  for (const Strategy& strategy : native_strategies(n, k)) {
    wu::Rng rng(wu::hash_words({0x4d435348ULL /* "MCSH" */}));
    const auto pattern = wm::patterns::uniform_window(n, k, 3, 48, rng);
    for (const wm::Slot budget : {wm::Slot{0}, wm::Slot{65}, wm::Slot{129}, wm::Slot{513}}) {
      ws::set_tile_words(0);
      wakeup::util::simd::set_force_scalar(false);
      const auto reference = run_mc(*strategy.protocol, pattern, ws::Engine::kInterpreter, budget);
      for (const std::size_t tile : {1u, 2u, 8u}) {
        for (const bool scalar : {false, true}) {
          ws::set_tile_words(tile);
          wakeup::util::simd::set_force_scalar(scalar);
          expect_identical(reference,
                           run_mc(*strategy.protocol, pattern, ws::Engine::kBatch, budget),
                           strategy.label + " budget=" + std::to_string(budget) + " tile=" +
                               std::to_string(tile) + (scalar ? " scalar" : " simd"));
        }
      }
    }
  }
}

TEST(McEngineEquivalence, ScheduleAgreesWithRuntimeActions) {
  // Capability contract: schedule_block bit == act().transmit and
  // channel_lane == act().channel (constant over the run), for stations in
  // and out of the universe, across block boundaries.
  const std::uint32_t n = 37, k = 5;
  for (const Strategy& strategy : native_strategies(n, k)) {
    const auto* schedule = strategy.protocol->oblivious_schedule();
    ASSERT_NE(schedule, nullptr) << strategy.label;
    EXPECT_EQ(schedule->schedule_channels(), strategy.protocol->channels()) << strategy.label;
    for (const wm::Slot wake : {wm::Slot{0}, wm::Slot{9}, wm::Slot{130}}) {
      for (const wm::StationId u : {0u, 1u, 17u, 36u, 45u}) {
        const std::uint32_t lane = schedule->channel_lane(u, wake);
        ASSERT_LT(lane, strategy.protocol->channels()) << strategy.label;
        auto runtime = strategy.protocol->make_runtime(u, wake);
        const wm::Slot from = (wake / 64) * 64;
        std::uint64_t words[4] = {0, 0, 0, 0};
        schedule->schedule_block(u, wake, from, words, 4);
        for (wm::Slot t = wake; t < from + 256; ++t) {
          const auto bit = static_cast<std::size_t>(t - from);
          const bool word_says = (words[bit / 64] >> (bit % 64)) & 1u;
          const wm::ChannelAction action = runtime->act(t);
          ASSERT_EQ(word_says, action.transmit)
              << strategy.label << " u=" << u << " wake=" << wake << " t=" << t;
          ASSERT_EQ(lane, action.channel)
              << strategy.label << " u=" << u << " wake=" << wake << " t=" << t;
        }
      }
    }
  }
}

TEST(McEngineEquivalence, BatchThrowsWithoutCapability) {
  // random_rpd hops channels per slot — no fixed lane, no capability.
  const auto rpd = wp::make_random_channel_rpd(64, 4, 1);
  EXPECT_EQ(rpd->oblivious_schedule(), nullptr);
  EXPECT_FALSE(ws::mc_batch_supports(*rpd));
  wu::Rng rng(2);
  const auto pattern = wm::patterns::simultaneous(64, 4, 0, rng);
  EXPECT_THROW((void)run_mc(*rpd, pattern, ws::Engine::kBatch), std::invalid_argument);
  // Adapters over non-oblivious inners cannot batch either.
  const auto adapter = wp::make_single_channel_adapter(wp::RpdProtocol::for_n(64, 3), 4);
  EXPECT_EQ(adapter->oblivious_schedule(), nullptr);
  EXPECT_THROW((void)run_mc(*adapter, pattern, ws::Engine::kBatch), std::invalid_argument);
}

TEST(McEngineEquivalence, CellsBitIdenticalToSlotLoop) {
  // Whole cells through the facade: every per-trial McSimResult of the
  // kAuto cell (batch engine for native strategies, the single-channel
  // stack for adapters) must equal the interpreted cell's, counter for
  // counter.
  const std::uint32_t n = 96, k = 12;
  for (const Strategy& strategy : native_strategies(n, k)) {
    ws::RunSpec spec;
    spec.mc_protocol = strategy.protocol.get();
    spec.make_pattern = [n, k](wu::Rng& rng) {
      return wm::patterns::uniform_window(n, k, 3, 48, rng);
    };
    spec.trials = 20;
    spec.base_seed = 20130522;

    std::vector<ws::McSimResult> interpreted(spec.trials), batched(spec.trials);
    auto interp_spec = spec;
    interp_spec.sim.engine = ws::Engine::kInterpreter;
    interp_spec.per_trial_mc = [&](std::uint64_t i, const ws::McSimResult& r) {
      interpreted[i] = r;
    };
    const auto plain = ws::Run(interp_spec, nullptr).trials.finalize();

    auto auto_spec = spec;
    auto_spec.per_trial_mc = [&](std::uint64_t i, const ws::McSimResult& r) {
      batched[i] = r;
    };
    wu::ThreadPool pool(3);
    const auto fast = ws::Run(auto_spec, &pool).trials.finalize();

    for (std::uint64_t i = 0; i < spec.trials; ++i) {
      expect_identical(interpreted[i], batched[i],
                       strategy.label + " trial " + std::to_string(i));
    }
    EXPECT_EQ(plain.failures, fast.failures) << strategy.label;
    EXPECT_DOUBLE_EQ(plain.rounds.mean, fast.rounds.mean) << strategy.label;
    EXPECT_DOUBLE_EQ(plain.silences.mean, fast.silences.mean) << strategy.label;
    EXPECT_DOUBLE_EQ(plain.collisions.mean, fast.collisions.mean) << strategy.label;
  }
}
