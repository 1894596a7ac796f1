/// Impaired-channel engine equivalence: every impairment kind must leave
/// interpreter ≡ batch bit-identity intact — static single-channel,
/// multichannel (wideband), and dynamic traffic (fault models) — across
/// tile widths {1, 2, 8} with the SIMD kernels on and forced scalar.  The
/// plan realization is shared by construction (both engines read the same
/// ImpairmentPlan), so any divergence is a fold bug, not a seed bug.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mac/wake_pattern.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "sim/batch_engine.hpp"
#include "sim/dynamic.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/mc_batch_engine.hpp"
#include "sim/mc_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wu = wakeup;

namespace {

/// Restores the engine tuning knobs the sweeps below override.
struct EngineTuningGuard {
  ~EngineTuningGuard() {
    wu::sim::set_tile_words(0);
    wu::util::simd::set_force_scalar(false);
  }
};

const std::vector<std::size_t>& tile_widths() {
  static const std::vector<std::size_t> widths = {1, 2, 8};
  return widths;
}

/// Every static-channel impairment kind (noise families, every realizable
/// jam schedule, and a compound clause).
const std::vector<std::string>& static_impairments() {
  static const std::vector<std::string> specs = {
      "noise:iid:0.1",
      "noise:bursty:0.15:0.1",
      "jam:budget:24:front",
      "jam:budget:24:spread",
      "jam:budget:24:random",
      "noise:iid:0.05+jam:budget:16:random",
  };
  return specs;
}

/// The dynamic layer adds the fault models on top.
const std::vector<std::string>& dynamic_impairments() {
  static const std::vector<std::string> specs = [] {
    std::vector<std::string> out = static_impairments();
    out.push_back("crash:0.25");
    out.push_back("crash:0.25:100");
    out.push_back("byzantine:0.125");
    out.push_back("noise:iid:0.05+jam:budget:16:random+crash:0.2:64+byzantine:0.1");
    return out;
  }();
  return specs;
}

wu::proto::ProtocolPtr registry_protocol(const std::string& name, std::uint32_t n,
                                         std::uint32_t k) {
  wu::proto::ProtocolSpec spec;
  spec.name = name;
  spec.n = n;
  spec.k = k;
  spec.seed = 20130522;
  return wu::proto::make_protocol_by_name(spec);
}

void expect_identical(const wu::sim::SimResult& a, const wu::sim::SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.s, b.s) << label;
  EXPECT_EQ(a.success_slot, b.success_slot) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.silences, b.silences) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.successes, b.successes) << label;
}

void expect_identical(const wu::sim::McSimResult& a, const wu::sim::McSimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.success_slot, b.success_slot) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.success_channel, b.success_channel) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.silences, b.silences) << label;
  EXPECT_EQ(a.successes, b.successes) << label;
}

}  // namespace

TEST(ImpairmentEquivalence, StaticEnginesBitIdenticalUnderEveryKind) {
  EngineTuningGuard guard;
  const wu::mac::Slot budget = 4096;
  for (const char* name : {"round_robin", "wakeup_with_k", "robust_rr"}) {
    const auto protocol = registry_protocol(name, 200, 16);
    ASSERT_NE(protocol->oblivious_schedule(), nullptr) << name;
    for (const std::string& text : static_impairments()) {
      const auto spec = wu::mac::ImpairmentSpec::parse(text);
      for (std::uint64_t trial = 0; trial < 3; ++trial) {
        const std::uint64_t seed =
            wu::util::hash_words({0x494d5151ULL /* "IMQQ" */, trial});
        wu::util::Rng rng(seed);
        const auto pattern =
            wu::mac::patterns::generate(wu::mac::patterns::Kind::kUniform, 200, 16, 0, rng);
        const auto plan = wu::sim::compile_impairment(
            spec, seed, pattern.first_wake() + budget);

        wu::sim::SimConfig config;
        config.max_slots = budget;
        config.impairment = &plan;
        config.engine = wu::sim::Engine::kInterpreter;
        const auto reference = wu::sim::dispatch_wakeup(*protocol, pattern, config);

        for (const std::size_t tile : tile_widths()) {
          for (const bool scalar : {false, true}) {
            wu::sim::set_tile_words(tile);
            wu::util::simd::set_force_scalar(scalar);
            config.engine = wu::sim::Engine::kBatch;
            const std::string label = std::string(name) + " " + text + " trial=" +
                                      std::to_string(trial) + " tile=" +
                                      std::to_string(tile) + (scalar ? " scalar" : " simd");
            expect_identical(reference, wu::sim::dispatch_wakeup(*protocol, pattern, config),
                             label);
          }
        }
        wu::sim::set_tile_words(0);
        wu::util::simd::set_force_scalar(false);
      }
    }
  }
}

TEST(ImpairmentEquivalence, MultichannelEnginesBitIdenticalWideband) {
  EngineTuningGuard guard;
  const std::uint32_t n = 96, k = 12;
  std::vector<std::pair<std::string, wu::proto::McProtocolPtr>> strategies;
  strategies.emplace_back("striped_rr/C=3", wu::proto::make_striped_round_robin(n, 3));
  strategies.emplace_back("group_wag/C=2",
                          wu::proto::make_group_wait_and_go(
                              n, k, 2, wu::comb::FamilyKind::kRandomized, 20130522));
  strategies.emplace_back(
      "adapter(round_robin)/C=3",
      wu::proto::make_single_channel_adapter(registry_protocol("round_robin", n, k), 3));
  for (const auto& [label, protocol] : strategies) {
    for (const std::string& text : static_impairments()) {
      const auto spec = wu::mac::ImpairmentSpec::parse(text);
      for (std::uint64_t trial = 0; trial < 3; ++trial) {
        const std::uint64_t seed =
            wu::util::hash_words({0x494d4d43ULL /* "IMMC" */, trial});
        wu::util::Rng rng(seed);
        const auto pattern =
            wu::mac::patterns::generate(wu::mac::patterns::Kind::kStaggered, n, k, 3, rng);
        const wu::mac::Slot budget = 2048;
        const auto plan =
            wu::sim::compile_impairment(spec, seed, pattern.first_wake() + budget);

        wu::sim::SimConfig config;
        config.max_slots = budget;
        config.impairment = &plan;
        config.engine = wu::sim::Engine::kInterpreter;
        const auto reference = wu::sim::dispatch_mc_wakeup(*protocol, pattern, config);

        for (const std::size_t tile : tile_widths()) {
          for (const bool scalar : {false, true}) {
            wu::sim::set_tile_words(tile);
            wu::util::simd::set_force_scalar(scalar);
            config.engine = wu::sim::Engine::kBatch;
            const std::string run_label = label + " " + text + " trial=" +
                                          std::to_string(trial) + " tile=" +
                                          std::to_string(tile) +
                                          (scalar ? " scalar" : " simd");
            expect_identical(reference,
                             wu::sim::dispatch_mc_wakeup(*protocol, pattern, config),
                             run_label);
          }
        }
        wu::sim::set_tile_words(0);
        wu::util::simd::set_force_scalar(false);
      }
    }
  }
}

TEST(ImpairmentEquivalence, DynamicEnginesBitIdenticalWithFaults) {
  EngineTuningGuard guard;
  const std::uint32_t n = 96, k = 12;
  const wu::mac::Slot horizon = 512;
  const auto arrival = wu::mac::ArrivalSpec::parse("poisson:0.3");
  for (const char* name : {"round_robin", "wakeup_with_k", "robust_rr"}) {
    const auto protocol = registry_protocol(name, n, k);
    ASSERT_TRUE(wu::sim::dynamic_batch_supports(*protocol)) << name;
    for (const std::string& text : dynamic_impairments()) {
      const auto spec = wu::mac::ImpairmentSpec::parse(text);
      for (std::uint64_t trial = 0; trial < 3; ++trial) {
        const std::uint64_t seed =
            wu::util::hash_words({0x494d4459ULL /* "IMDY" */, trial});
        wu::util::Rng rng(seed);
        const auto scenario = wu::mac::arrivals::generate(arrival, n, k, horizon, rng);
        const auto plan =
            wu::sim::compile_impairment(spec, seed, horizon, &scenario.stations());

        const auto reference = wu::sim::run_dynamic_interpreter(*protocol, scenario, &plan);
        // The slot invariants survive every impairment.
        EXPECT_EQ(reference.silences + reference.collisions + reference.delivered,
                  static_cast<std::uint64_t>(horizon))
            << name << " " << text;
        EXPECT_EQ(reference.arrivals, reference.delivered + reference.backlog)
            << name << " " << text;
        // Byzantine stations never deliver.
        for (const auto u : plan.byzantine) {
          for (std::size_t i = 0; i < reference.stations.size(); ++i) {
            if (reference.stations[i] == u) {
              EXPECT_EQ(reference.delivered_per_station[i], 0u) << name << " " << text;
            }
          }
        }

        for (const std::size_t tile : tile_widths()) {
          for (const bool scalar : {false, true}) {
            wu::sim::set_tile_words(tile);
            wu::util::simd::set_force_scalar(scalar);
            const auto batch = wu::sim::run_dynamic_batch(*protocol, scenario, &plan);
            EXPECT_EQ(reference, batch)
                << name << " " << text << " trial=" << trial << " tile=" << tile
                << (scalar ? " scalar" : " simd");
          }
        }
        wu::sim::set_tile_words(0);
        wu::util::simd::set_force_scalar(false);
      }
    }
  }
}
