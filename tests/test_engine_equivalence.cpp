/// Engine equivalence: every oblivious protocol in the registry must
/// produce bit-identical SimResults through the slot-by-slot interpreter
/// and the word-parallel batch engine, over randomized wake patterns with
/// shared seeds — including the full-resolution extension.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "sim/batch_engine.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "wakeup/wakeup.hpp"

namespace wu = wakeup;

namespace {

/// Restores the engine tuning knobs (tile width, kernel table) the SIMD
/// sweeps below override.
struct EngineTuningGuard {
  ~EngineTuningGuard() {
    wu::sim::set_tile_words(0);
    wu::util::simd::set_force_scalar(false);
  }
};

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
  EXPECT_EQ(a.completion_slot, b.completion_slot) << label;
  EXPECT_EQ(a.completion_rounds, b.completion_rounds) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
}


wu::sim::SimResult run_one(const wu::proto::Protocol& protocol,
                           const wu::mac::WakePattern& pattern,
                           const wu::sim::SimConfig& config) {
  return wu::sim::Run({.protocol = &protocol, .pattern = &pattern, .sim = config}).sim;
}

/// Names of the registry protocols that expose an oblivious schedule
/// (checked, not assumed — the test fails if the capability disappears).
std::vector<std::string> oblivious_names() {
  return {"round_robin", "select_among_the_first", "wakeup_with_s",
          "wait_and_go", "wakeup_with_k",          "wakeup_matrix"};
}

struct Shape {
  std::uint32_t n;
  std::uint32_t k;
  wu::mac::Slot s;
};

class EngineEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineEquivalence, BitIdenticalAcrossSeededTrials) {
  const std::string name = GetParam();
  const std::vector<Shape> shapes = {{17, 3, 0}, {64, 8, 5}, {200, 16, 7}};
  const auto& kinds = wu::mac::patterns::all_kinds();

  std::uint64_t trials = 0;
  for (const Shape& shape : shapes) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = shape.n;
    spec.k = shape.k;
    spec.s = shape.s;
    spec.seed = 20130522;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    ASSERT_NE(protocol->oblivious_schedule(), nullptr) << name;

    for (const auto kind : kinds) {
      for (std::uint64_t trial = 0; trial < 8; ++trial) {
        const std::uint64_t seed = wu::util::hash_words(
            {0x45515549ULL /* "EQUI" */, shape.n, static_cast<std::uint64_t>(kind), trial});
        wu::util::Rng rng_a(seed);
        wu::util::Rng rng_b(seed);  // shared seed: identical patterns
        const auto pattern_a =
            wu::mac::patterns::generate(kind, shape.n, shape.k, shape.s, rng_a);
        const auto pattern_b =
            wu::mac::patterns::generate(kind, shape.n, shape.k, shape.s, rng_b);

        wu::sim::SimConfig interp;
        interp.engine = wu::sim::Engine::kInterpreter;
        wu::sim::SimConfig batch;
        batch.engine = wu::sim::Engine::kBatch;
        wu::sim::SimConfig hybrid;  // kAuto: interpreted first block + batch
        const std::string label = name + " n=" + std::to_string(shape.n) + " kind=" +
                                  wu::mac::patterns::kind_name(kind) + " trial=" +
                                  std::to_string(trial);
        const auto reference = run_one(*protocol, pattern_a, interp);
        expect_identical(reference, run_one(*protocol, pattern_b, batch), label);
        expect_identical(reference, run_one(*protocol, pattern_b, hybrid),
                         label + " auto");

        // Full-resolution extension: winners leave, engines must agree on
        // the whole drain, not just the first success.
        interp.full_resolution = true;
        batch.full_resolution = true;
        expect_identical(run_one(*protocol, pattern_a, interp),
                         run_one(*protocol, pattern_b, batch),
                         label + " full_resolution");
        ++trials;
      }
    }
  }
  EXPECT_GE(trials, 100u) << "acceptance: >= 100 seeded trials per protocol";
}

INSTANTIATE_TEST_SUITE_P(Registry, EngineEquivalence,
                         ::testing::ValuesIn(oblivious_names()),
                         [](const auto& info) { return info.param; });

/// A deterministic "pulse" protocol for exact-slot boundary tests: station
/// u transmits at precisely the absolute slots listed for it, nothing else.
/// words_are_cheap() stays false so Engine::kAuto takes the interpreted
/// warm-up block — the path whose carry/boundary logic is under test.
class PulseProtocol final : public wu::proto::Protocol, public wu::proto::ObliviousSchedule {
 public:
  explicit PulseProtocol(std::vector<std::vector<wu::mac::Slot>> pulses)
      : pulses_(std::move(pulses)) {}

  [[nodiscard]] std::string name() const override { return "pulse"; }
  [[nodiscard]] std::unique_ptr<wu::proto::StationRuntime> make_runtime(
      wu::mac::StationId u, wu::mac::Slot wake) const override {
    (void)wake;
    class Runtime final : public wu::proto::StationRuntime {
     public:
      Runtime(const PulseProtocol& p, wu::mac::StationId u) : p_(p), u_(u) {}
      [[nodiscard]] bool transmits(wu::mac::Slot t) override { return p_.pulse_at(u_, t); }

     private:
      const PulseProtocol& p_;
      wu::mac::StationId u_;
    };
    return std::make_unique<Runtime>(*this, u);
  }
  [[nodiscard]] const wu::proto::ObliviousSchedule* oblivious_schedule() const override {
    return this;
  }
  void schedule_block(wu::mac::StationId u, wu::mac::Slot wake, wu::mac::Slot from,
                      std::uint64_t* out_words, std::size_t n_words) const override {
    (void)wake;
    for (std::size_t w = 0; w < n_words; ++w) out_words[w] = 0;
    if (u >= pulses_.size()) return;
    for (const wu::mac::Slot t : pulses_[u]) {
      if (t < from || t >= from + static_cast<wu::mac::Slot>(64 * n_words)) continue;
      const auto bit = static_cast<std::size_t>(t - from);
      out_words[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }

 private:
  [[nodiscard]] bool pulse_at(wu::mac::StationId u, wu::mac::Slot t) const {
    return u < pulses_.size() &&
           std::find(pulses_[u].begin(), pulses_[u].end(), t) != pulses_[u].end();
  }
  std::vector<std::vector<wu::mac::Slot>> pulses_;
};

/// Hybrid warm-up boundaries: the warm-up is hybrid_warmup_slots(k) =
/// min(64, ⌊64 / k⌋) slots, so for k = 1 (the full 64-slot block), k = 3
/// (21 slots) and k = 65 (none) every budget from 1 to 65 and successes
/// placed at the last warm-up slot and the first batched one must agree
/// with the pure interpreter — including the silence/collision counters
/// carried from the warm-up prefix into the batched continuation.
TEST(HybridWarmup, BoundaryBudgetsAndSuccessSlotsMatchInterpreter) {
  const wu::mac::Slot s = 5;
  struct Case {
    std::string label;
    wu::mac::Slot solo;  // station 0's only transmission
  };
  for (const std::size_t k : {1u, 3u, 65u}) {
    std::vector<wu::mac::Arrival> arrivals;
    for (std::size_t u = 0; u < k; ++u) {
      arrivals.push_back({static_cast<wu::mac::StationId>(u), s});
    }
    const wu::mac::WakePattern pattern(128, arrivals);
    const wu::mac::Slot warm = wu::sim::hybrid_warmup_slots(PulseProtocol({}), pattern, {});
    EXPECT_EQ(warm, std::min<wu::mac::Slot>(64, 64 / static_cast<wu::mac::Slot>(k)));
    std::vector<Case> cases = {
        // Success exactly at the first batched slot, with a warm-up
        // collision (slot s) whose counters must carry over.
        {"success@first-batched", s + warm},
        // No success at all inside small budgets.
        {"late", s + 200},
    };
    // Success exactly at the last warm-up slot.
    if (warm > 0) cases.push_back({"success@last-warm-up", s + warm - 1});
    for (const auto& c : cases) {
      // Stations 1.. collide at s and again after every budget below.
      std::vector<std::vector<wu::mac::Slot>> pulses = {{c.solo}};
      for (std::size_t u = 1; u < k; ++u) pulses.push_back({s, s + 300});
      const PulseProtocol protocol(pulses);
      std::vector<wu::mac::Slot> budgets;
      for (wu::mac::Slot b = 1; b <= 65; ++b) budgets.push_back(b);
      budgets.insert(budgets.end(), {80, 256});
      for (const wu::mac::Slot budget : budgets) {
        wu::sim::SimConfig interp;
        interp.engine = wu::sim::Engine::kInterpreter;
        interp.max_slots = budget;
        wu::sim::SimConfig batch = interp;
        batch.engine = wu::sim::Engine::kBatch;
        wu::sim::SimConfig hybrid = interp;
        hybrid.engine = wu::sim::Engine::kAuto;
        const std::string label = c.label + " k=" + std::to_string(k) +
                                  " warm=" + std::to_string(warm) +
                                  " budget=" + std::to_string(budget);
        const auto reference = run_one(protocol, pattern, interp);
        expect_identical(reference, run_one(protocol, pattern, batch), label + " batch");
        expect_identical(reference, run_one(protocol, pattern, hybrid), label + " auto");
      }
    }
  }
}

/// Every budget from 1 to 65 on real registry protocols (hashed words, so
/// kAuto interprets hybrid_warmup_slots(k) slots first), at k = 1 (a full
/// 64-slot warm-up), k = 8 (8 slots) and k = 65 (none): every engine agrees.
TEST(HybridWarmup, RegistryProtocolsAgreeAtBoundaryBudgets) {
  for (const auto& name : oblivious_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 96;
    spec.k = 8;
    spec.s = 3;
    spec.seed = 20130522;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    for (const std::uint32_t k : {1u, 8u, 65u}) {
      for (std::uint64_t trial = 0; trial < 2; ++trial) {
        wu::util::Rng rng(wu::util::hash_words({0x57524dULL /* "WRM" */, k, trial}));
        const auto pattern = wu::mac::patterns::uniform_window(96, k, 3, 32, rng);
        const wu::mac::Slot warm =
            wu::sim::hybrid_warmup_slots(*protocol->oblivious_schedule(), pattern, {});
        if (name != "round_robin") {
          EXPECT_EQ(warm, std::min<wu::mac::Slot>(64, 64 / static_cast<wu::mac::Slot>(k)))
              << name;
        }
        for (wu::mac::Slot budget = 1; budget <= 65; ++budget) {
          wu::sim::SimConfig interp;
          interp.engine = wu::sim::Engine::kInterpreter;
          interp.max_slots = budget;
          wu::sim::SimConfig batch = interp;
          batch.engine = wu::sim::Engine::kBatch;
          wu::sim::SimConfig hybrid = interp;
          hybrid.engine = wu::sim::Engine::kAuto;
          const std::string label = name + " k=" + std::to_string(k) + " trial=" +
                                    std::to_string(trial) + " budget=" + std::to_string(budget);
          const auto reference = run_one(*protocol, pattern, interp);
          expect_identical(reference, run_one(*protocol, pattern, batch), label + " batch");
          expect_identical(reference, run_one(*protocol, pattern, hybrid), label + " auto");
        }
      }
    }
  }
}

/// SIMD vs scalar-fallback bit-identity, across tile widths: every
/// oblivious protocol, through the forced batch engine, must produce the
/// interpreter's exact SimResult for every (tile width, kernel table)
/// combination — the acceptance bar for the word-matrix engine.  Covers
/// first-success and full-resolution modes over mixed patterns.
TEST(SimdMatrix, TileWidthsAndKernelsBitIdentical) {
  EngineTuningGuard guard;
  for (const auto& name : oblivious_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 96;
    spec.k = 8;
    spec.s = 3;
    spec.seed = 20130522;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      wu::util::Rng rng(wu::util::hash_words({0x534d4458ULL /* "SMDX" */, trial}));
      const auto pattern = wu::mac::patterns::uniform_window(96, 8, 3, 48, rng);
      for (const bool full_resolution : {false, true}) {
        wu::sim::SimConfig interp;
        interp.engine = wu::sim::Engine::kInterpreter;
        interp.full_resolution = full_resolution;
        wu::sim::set_tile_words(0);
        wu::util::simd::set_force_scalar(false);
        const auto reference = run_one(*protocol, pattern, interp);
        for (const std::size_t tile : {1u, 2u, 3u, 8u}) {
          for (const bool scalar : {false, true}) {
            wu::sim::set_tile_words(tile);
            wu::util::simd::set_force_scalar(scalar);
            wu::sim::SimConfig batch = interp;
            batch.engine = wu::sim::Engine::kBatch;
            expect_identical(reference, run_one(*protocol, pattern, batch),
                             name + " trial=" + std::to_string(trial) + " tile=" +
                                 std::to_string(tile) + (scalar ? " scalar" : " simd") +
                                 (full_resolution ? " full" : ""));
          }
        }
      }
    }
  }
}

/// Budget edges at tile granularity: budgets straddling the 1-2-4-8 tile
/// ramp boundaries (and the plain 64-slot block edges) must agree with the
/// interpreter on every counter, including budget exhaustion.
TEST(SimdMatrix, TileRampBudgetEdgesMatchInterpreter) {
  EngineTuningGuard guard;
  for (const auto& name : oblivious_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 64;
    spec.k = 8;
    spec.s = 3;
    spec.seed = 20130522;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    wu::util::Rng rng(wu::util::hash_words({0x52414d50ULL /* "RAMP" */}));
    const auto pattern = wu::mac::patterns::simultaneous(64, 8, 5, rng);
    for (const wu::mac::Slot budget :
         {1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 447, 448, 449, 511, 512, 513}) {
      wu::sim::SimConfig interp;
      interp.engine = wu::sim::Engine::kInterpreter;
      interp.max_slots = budget;
      wu::sim::set_tile_words(0);
      wu::util::simd::set_force_scalar(false);
      const auto reference = run_one(*protocol, pattern, interp);
      for (const std::size_t tile : {1u, 8u}) {
        wu::sim::set_tile_words(tile);
        wu::sim::SimConfig batch = interp;
        batch.engine = wu::sim::Engine::kBatch;
        expect_identical(reference, run_one(*protocol, pattern, batch),
                         name + " budget=" + std::to_string(budget) + " tile=" +
                             std::to_string(tile));
        wu::sim::SimConfig hybrid = interp;
        hybrid.engine = wu::sim::Engine::kAuto;
        expect_identical(reference, run_one(*protocol, pattern, hybrid),
                         name + " budget=" + std::to_string(budget) + " tile=" +
                             std::to_string(tile) + " auto");
      }
    }
  }
}

/// Whole cells through the facade under every (tile, kernel) combination:
/// each trial of the kAuto cell (interpreted warm-up, then tile fetches
/// through schedule_tile) must equal the interpreted cell's trial.
TEST(SimdMatrix, CellsBitIdenticalAcrossTileAndKernel) {
  EngineTuningGuard guard;
  for (const auto& name : oblivious_names()) {
    wu::sim::RunSpec spec;
    spec.make_protocol = [name](std::uint64_t seed) {
      wu::proto::ProtocolSpec p;
      p.name = name;
      p.n = 96;
      p.k = 8;
      p.s = 3;
      p.seed = seed;
      return wu::proto::make_protocol_by_name(p);
    };
    spec.make_pattern = [](wu::util::Rng& rng) {
      return wu::mac::patterns::uniform_window(96, 8, 3, 48, rng);
    };
    spec.trials = 12;
    spec.base_seed = 20130522;

    wu::sim::set_tile_words(0);
    wu::util::simd::set_force_scalar(false);
    std::vector<wu::sim::SimResult> reference(spec.trials);
    auto interp_spec = spec;
    interp_spec.sim.engine = wu::sim::Engine::kInterpreter;
    interp_spec.per_trial = [&](std::uint64_t i, const wu::sim::SimResult& r) {
      reference[i] = r;
    };
    (void)wu::sim::Run(interp_spec, nullptr);

    for (const std::size_t tile : {1u, 3u, 8u}) {
      for (const bool scalar : {false, true}) {
        wu::sim::set_tile_words(tile);
        wu::util::simd::set_force_scalar(scalar);
        std::vector<wu::sim::SimResult> batched(spec.trials);
        auto auto_spec = spec;
        auto_spec.per_trial = [&](std::uint64_t i, const wu::sim::SimResult& r) {
          batched[i] = r;
        };
        (void)wu::sim::Run(auto_spec, nullptr);
        for (std::uint64_t i = 0; i < spec.trials; ++i) {
          expect_identical(reference[i], batched[i],
                           name + " tile=" + std::to_string(tile) +
                               (scalar ? " scalar" : " simd") + " trial " +
                               std::to_string(i));
        }
      }
    }
  }
}

/// The fetch contracts behind the word-matrix engines: one
/// schedule_block(from, n) call must emit exactly what n single-word calls
/// do, one schedule_tile call over all of a schedule's (u, wake) pairs
/// exactly what their single-word calls do, and single-channel words what
/// the protocol's runtime answers — for every oblivious protocol (single-
/// and multichannel), including tiles straddling the wake block, s and
/// family boundaries.  Covers the schedule_tile default and every override
/// (the §5 matrix, wait_and_go, select_among_the_first, wakeup_with_s and
/// the interleaver): SATF participants wake at s, `from` takes both
/// parities of t − s and of the slot itself, a mod-prime wait_and_go runs
/// the window's per-station fallback, and a ladder up to k = n = 37 draws
/// with p = 1/37.
TEST(ScheduleEmitters, TilesAndMultiWordBlocksMatchSingleWordCalls) {
  struct Subject {
    std::string label;
    const wu::proto::ObliviousSchedule* schedule;
    wu::proto::ProtocolPtr keep;        // ownership
    wu::proto::McProtocolPtr keep_mc;   // ownership
  };
  const auto make = [](const std::string& name) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 37;
    spec.k = 5;
    spec.s = 3;
    spec.seed = 77;
    return wu::proto::make_protocol_by_name(spec);
  };
  std::vector<Subject> subjects;
  for (const auto& name : oblivious_names()) {
    auto protocol = make(name);
    subjects.push_back({name, protocol->oblivious_schedule(), protocol, nullptr});
  }
  for (const std::uint32_t c : {1u, 3u}) {
    auto striped = wu::proto::make_striped_round_robin(37, c);
    subjects.push_back({"striped_rr/C=" + std::to_string(c), striped->oblivious_schedule(),
                        nullptr, striped});
    auto wag = wu::proto::make_group_wait_and_go(37, 5, c, wu::comb::FamilyKind::kRandomized,
                                                 77);
    subjects.push_back({"group_wag/C=" + std::to_string(c), wag->oblivious_schedule(),
                        nullptr, wag});
  }
  auto adapter = wu::proto::make_single_channel_adapter(make("wait_and_go"), 3);
  subjects.push_back({"adapter(wait_and_go)/C=3", adapter->oblivious_schedule(), nullptr,
                      adapter});
  auto mod_prime = wu::proto::make_wait_and_go(37, 5, wu::comb::FamilyKind::kModPrime, 77);
  subjects.push_back({"wait_and_go/mod_prime", mod_prime->oblivious_schedule(), mod_prime,
                      nullptr});
  auto full_ladder = wu::proto::make_wait_and_go(37, 37, wu::comb::FamilyKind::kRandomized, 77);
  subjects.push_back({"wait_and_go/k=n", full_ladder->oblivious_schedule(), full_ladder,
                      nullptr});

  // Station-major order mixes the wake classes inside one tile call; wake
  // 3 is s, so select_among_the_first and wakeup_with_s have participants.
  std::vector<std::pair<wu::mac::StationId, wu::mac::Slot>> members;
  for (const wu::mac::StationId u : {0u, 17u, 36u, 45u}) {
    for (const wu::mac::Slot wake :
         {wu::mac::Slot{0}, wu::mac::Slot{3}, wu::mac::Slot{10}, wu::mac::Slot{129}}) {
      members.emplace_back(u, wake);
    }
  }
  for (const Subject& subject : subjects) {
    ASSERT_NE(subject.schedule, nullptr) << subject.label;
    // With s = 3: from 0 straddles s with t − s odd, 3 starts at s with
    // t − s even, 64 and 128 are odd past s, 67 is even past s; 3 and 67
    // are odd slots.
    for (const wu::mac::Slot from : {wu::mac::Slot{0}, wu::mac::Slot{3}, wu::mac::Slot{64},
                                     wu::mac::Slot{67}, wu::mac::Slot{128}}) {
      for (const std::size_t n_words : {2u, 5u, 8u, 9u}) {
        std::vector<std::vector<std::uint64_t>> rows(members.size(),
                                                     std::vector<std::uint64_t>(n_words, 0));
        std::vector<wu::proto::ObliviousSchedule::TileStation> stations;
        for (std::size_t i = 0; i < members.size(); ++i) {
          stations.push_back({members[i].first, members[i].second, rows[i].data()});
        }
        subject.schedule->schedule_tile(stations, from, n_words);
        for (std::size_t i = 0; i < members.size(); ++i) {
          const auto [u, wake] = members[i];
          std::vector<std::uint64_t> tile(n_words, 0);
          subject.schedule->schedule_block(u, wake, from, tile.data(), n_words);
          for (std::size_t w = 0; w < n_words; ++w) {
            std::uint64_t single = 0;
            const wu::mac::Slot block = from + static_cast<wu::mac::Slot>(64 * w);
            subject.schedule->schedule_block(u, wake, block, &single, 1);
            // Bits before the wake are unspecified by contract — mask
            // both sides to the specified region.
            std::uint64_t specified = ~std::uint64_t{0};
            if (wake >= block + 64) {
              specified = 0;
            } else if (wake > block) {
              specified <<= (wake - block);
            }
            const std::string label = subject.label + " u=" + std::to_string(u) +
                                      " wake=" + std::to_string(wake) + " from=" +
                                      std::to_string(from) + " w=" + std::to_string(w) +
                                      " n=" + std::to_string(n_words);
            ASSERT_EQ(tile[w] & specified, single & specified) << label;
            ASSERT_EQ(rows[i][w] & specified, single & specified) << label << " (tile)";
          }
          if (subject.keep == nullptr) continue;
          // The runtime is the independent reference: a change that moved
          // every emitter the same way still fails here.
          auto runtime = subject.keep->make_runtime(u, wake);
          const wu::mac::Slot end = from + static_cast<wu::mac::Slot>(64 * n_words);
          for (wu::mac::Slot t = wake; t < end; ++t) {
            const bool says = runtime->transmits(t);
            if (t < from) continue;
            const auto bit = static_cast<std::size_t>(t - from);
            ASSERT_EQ(((rows[i][bit / 64] >> (bit % 64)) & 1u) != 0, says)
                << subject.label << " u=" << u << " wake=" << wake << " from=" << from
                << " t=" << t << " (runtime)";
          }
        }
      }
    }
  }
}

/// Tiles wider than one pass of an override's stack scratch
/// (ObliviousSchedule::kTileChunk stations) and than one 64-key kernel
/// call: one schedule_tile over 2·kTileChunk + 44 stations must emit what
/// each station's own schedule_block does.
TEST(ScheduleEmitters, TilesWiderThanOneChunkMatchOneStationCalls) {
  constexpr std::size_t kStations = 2 * wu::proto::ObliviousSchedule::kTileChunk + 44;
  constexpr std::size_t kWords = 3;
  for (const auto& name : oblivious_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 1024;
    spec.k = 64;
    spec.s = 3;
    spec.seed = 77;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    const auto* schedule = protocol->oblivious_schedule();
    ASSERT_NE(schedule, nullptr) << name;
    std::vector<std::uint64_t> rows(kStations * kWords, 0);
    std::vector<wu::proto::ObliviousSchedule::TileStation> stations;
    for (std::size_t i = 0; i < kStations; ++i) {
      // Sorted wakes, a few stations per wake; every third wakes at s.
      const wu::mac::Slot wake = i % 3 == 0 ? 3 : static_cast<wu::mac::Slot>(i / 8);
      stations.push_back({static_cast<wu::mac::StationId>((7 * i) % 1024), wake,
                          rows.data() + i * kWords});
    }
    std::sort(stations.begin(), stations.end(),
              [](const auto& a, const auto& b) { return a.wake < b.wake; });
    const wu::mac::Slot from = 64;
    schedule->schedule_tile(stations, from, kWords);
    for (const auto& st : stations) {
      std::uint64_t single[kWords] = {};
      schedule->schedule_block(st.u, st.wake, from, single, kWords);
      for (std::size_t w = 0; w < kWords; ++w) {
        // Bits before the wake are unspecified by contract.
        const wu::mac::Slot block = from + static_cast<wu::mac::Slot>(64 * w);
        const std::uint64_t specified =
            st.wake <= block ? ~std::uint64_t{0} : ~std::uint64_t{0} << (st.wake - block);
        ASSERT_EQ(st.out_words[w] & specified, single[w] & specified)
            << name << " u=" << st.u << " wake=" << st.wake << " w=" << w;
      }
    }
  }
}

TEST(EngineDispatch, AutoSelectsBatchForOblivious) {
  wu::proto::ProtocolSpec spec;
  spec.name = "round_robin";
  spec.n = 64;
  const auto protocol = wu::proto::make_protocol_by_name(spec);
  wu::sim::SimConfig config;
  EXPECT_TRUE(wu::sim::batch_engine_supports(*protocol, config));
  config.record_trace = true;  // traces are interpreter-only
  EXPECT_FALSE(wu::sim::batch_engine_supports(*protocol, config));
}

TEST(EngineDispatch, RandomizedProtocolsStayOnInterpreter) {
  wu::proto::ProtocolSpec spec;
  spec.name = "rpd_n";
  spec.n = 64;
  const auto protocol = wu::proto::make_protocol_by_name(spec);
  EXPECT_EQ(protocol->oblivious_schedule(), nullptr);
  wu::sim::SimConfig config;
  EXPECT_FALSE(wu::sim::batch_engine_supports(*protocol, config));

  // Forcing the batch engine on a non-oblivious protocol is an error.
  config.engine = wu::sim::Engine::kBatch;
  wu::util::Rng rng(1);
  const auto pattern = wu::mac::patterns::staggered(64, 4, 0, 3, rng);
  EXPECT_THROW((void)run_one(*protocol, pattern, config), std::invalid_argument);
}

TEST(EngineDispatch, ScheduleBlocksMatchRuntimes) {
  // Direct word-level check of every oblivious schedule against its own
  // runtime, over a window crossing several 64-slot block boundaries.
  for (const auto& name : oblivious_names()) {
    wu::proto::ProtocolSpec spec;
    spec.name = name;
    spec.n = 37;  // deliberately not a power of two or multiple of 64
    spec.k = 5;
    spec.s = 3;
    const auto protocol = wu::proto::make_protocol_by_name(spec);
    const auto* schedule = protocol->oblivious_schedule();
    ASSERT_NE(schedule, nullptr) << name;
    for (const wu::mac::Slot wake : {wu::mac::Slot{3}, wu::mac::Slot{10}, wu::mac::Slot{129}}) {
      // 45 >= n: out-of-universe stations must stay silent in both engines.
      for (const wu::mac::StationId u : {0u, 1u, 17u, 36u, 45u}) {
        auto runtime = protocol->make_runtime(u, wake);
        const wu::mac::Slot from = (wake / 64) * 64;  // block containing wake
        std::uint64_t words[4] = {0, 0, 0, 0};
        schedule->schedule_block(u, wake, from, words, 4);
        for (wu::mac::Slot t = wake; t < from + 256; ++t) {
          const auto bit = static_cast<std::size_t>(t - from);
          const bool batch_says = (words[bit / 64] >> (bit % 64)) & 1u;
          ASSERT_EQ(batch_says, runtime->transmits(t))
              << name << " u=" << u << " wake=" << wake << " t=" << t;
        }
      }
    }
  }
}

}  // namespace
