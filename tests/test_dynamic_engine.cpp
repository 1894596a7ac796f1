/// Dynamic-traffic layer: arrival-spec grammar round-trips, scenario
/// generation determinism, queue-conservation invariants, and — the heart
/// of the file — bit-identity of the word-parallel still-backlogged batch
/// engine against the event-driven interpreter across protocols × arrival
/// kinds × tile widths × forced-scalar kernels, and of the interpreter's
/// re-contenders against a per-slot reference loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mac/channel.hpp"
#include "protocols/adaptive_cw.hpp"
#include "protocols/registry.hpp"
#include "sim/batch_engine.hpp"
#include "sim/dynamic.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "wakeup/wakeup.hpp"

namespace wu = wakeup;
using wu::mac::ArrivalKind;
using wu::mac::ArrivalSpec;
using wu::mac::DynamicScenario;

namespace {

struct EngineTuningGuard {
  ~EngineTuningGuard() {
    wu::sim::set_tile_words(0);
    wu::util::simd::set_force_scalar(false);
  }
};

wu::proto::ProtocolPtr make_named(const std::string& name, std::uint32_t n, std::uint32_t k,
                                  std::uint64_t seed) {
  wu::proto::ProtocolSpec spec;
  spec.name = name;
  spec.n = n;
  spec.k = k;
  spec.seed = seed;
  return wu::proto::make_protocol_by_name(spec);
}

DynamicScenario make_scenario(const ArrivalSpec& spec, std::uint32_t n, std::uint32_t k,
                              wu::mac::Slot horizon, std::uint64_t seed) {
  wu::util::Rng rng(seed);
  return wu::mac::arrivals::generate(spec, n, k, horizon, rng);
}

std::vector<ArrivalSpec> generator_kinds() {
  return {
      ArrivalSpec::parse("poisson:0.3"),
      ArrivalSpec::parse("bursty:0.5:0.05"),
      ArrivalSpec::parse("pareto:1.5:0.2"),
  };
}

void expect_identical(const wu::sim::DynamicResult& a, const wu::sim::DynamicResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.horizon, b.horizon) << label;
  EXPECT_EQ(a.arrivals, b.arrivals) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.backlog, b.backlog) << label;
  EXPECT_EQ(a.silences, b.silences) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.stations, b.stations) << label;
  EXPECT_EQ(a.delivered_per_station, b.delivered_per_station) << label;
  EXPECT_EQ(a.latency, b.latency) << label;  // delivery order, not just multiset
}

void expect_invariants(const wu::sim::DynamicResult& r, const DynamicScenario& scenario,
                       const std::string& label) {
  // Every slot of the horizon resolves exactly once.
  EXPECT_EQ(r.silences + r.collisions + r.delivered,
            static_cast<std::uint64_t>(r.horizon))
      << label;
  // Queue conservation: nothing is created or lost.
  EXPECT_EQ(r.arrivals, static_cast<std::uint64_t>(scenario.packets_total())) << label;
  EXPECT_EQ(r.arrivals, r.delivered + r.backlog) << label;
  std::uint64_t per_station = 0;
  for (const std::uint64_t d : r.delivered_per_station) per_station += d;
  EXPECT_EQ(per_station, r.delivered) << label;
  EXPECT_EQ(r.latency.size(), r.delivered) << label;
  for (const double l : r.latency) EXPECT_GE(l, 1.0) << label;
}

// ---------------------------------------------------------- arrival specs --

TEST(ArrivalSpec, ParseNameRoundTrip) {
  for (const char* text :
       {"poisson:0.1", "poisson:0.25", "bursty:0.5:0.05", "pareto:1.5:0.1", "replay"}) {
    const ArrivalSpec spec = ArrivalSpec::parse(text);
    EXPECT_EQ(spec.name(), text);
    EXPECT_EQ(ArrivalSpec::parse(spec.name()), spec);
  }
}

TEST(ArrivalSpec, ParseRejectsMalformedSpecs) {
  for (const char* text : {"", "poisson", "poisson:0", "poisson:-0.1", "poisson:abc",
                           "bursty:0.5", "bursty:0.5:0", "bursty:0.5:1.5", "pareto:1.0",
                           "pareto:0.5", "uniform:0.1", "poisson:0.1:0.2",
                           // Non-finite values: NaN fails every range check's
                           // comparison, and inf passes the one-sided ones.
                           "pareto:nan", "pareto:nan:0.1", "bursty:0.4:nan", "poisson:inf",
                           "bursty:inf:0.5", "pareto:inf", "pareto:1.5:inf"}) {
    EXPECT_THROW((void)ArrivalSpec::parse(text), std::invalid_argument) << text;
  }
}

TEST(ArrivalAxis, ParsesCommaSeparatedSpecsAndRejectsReplay) {
  const auto axis = wu::exp::parse_arrival_axis("poisson:0.1,bursty:0.5:0.05,pareto:1.5");
  ASSERT_EQ(axis.size(), 3u);
  EXPECT_EQ(axis[0].kind, ArrivalKind::kPoisson);
  EXPECT_EQ(axis[1].kind, ArrivalKind::kBursty);
  EXPECT_EQ(axis[2].kind, ArrivalKind::kPareto);
  EXPECT_THROW((void)wu::exp::parse_arrival_axis("poisson:0.1,replay"), std::invalid_argument);
}

// ------------------------------------------------------ scenario generation --

TEST(ArrivalGeneration, DeterministicPerSeedAndSensitiveToSeed) {
  for (const ArrivalSpec& spec : generator_kinds()) {
    const DynamicScenario a = make_scenario(spec, 256, 16, 1024, 7);
    const DynamicScenario b = make_scenario(spec, 256, 16, 1024, 7);
    const DynamicScenario c = make_scenario(spec, 256, 16, 1024, 8);
    EXPECT_EQ(a.packets(), b.packets()) << spec.name();
    EXPECT_NE(a.packets(), c.packets()) << spec.name();
    // stations() lists stations with >= 1 realized packet — at most the k drawn.
    EXPECT_GE(a.stations().size(), 1u) << spec.name();
    EXPECT_LE(a.stations().size(), 16u) << spec.name();
    for (const wu::mac::Arrival& p : a.packets()) {
      EXPECT_LT(p.station, 256u) << spec.name();
      EXPECT_GE(p.wake, 0) << spec.name();
      EXPECT_LT(p.wake, 1024) << spec.name();
    }
  }
}

TEST(ArrivalGeneration, PoissonRealizesRoughlyTheOfferedLoad) {
  const DynamicScenario s =
      make_scenario(ArrivalSpec::parse("poisson:0.5"), 512, 32, 8192, 11);
  // 0.5 packets/slot over 8192 slots: expect ~4096 packets, generously
  // bracketed (Bernoulli thinning keeps the mean exact).
  EXPECT_GT(s.packets_total(), 3200u);
  EXPECT_LT(s.packets_total(), 5100u);
}

TEST(ArrivalGeneration, ReplayKindThrows) {
  wu::util::Rng rng(1);
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kReplay;
  EXPECT_THROW((void)wu::mac::arrivals::generate(spec, 64, 4, 128, rng),
               std::invalid_argument);
}

TEST(DynamicScenario, ValidatesAndSortsPackets) {
  std::vector<wu::mac::Arrival> packets = {{3, 9}, {1, 4}, {3, 4}, {1, 0}};
  const DynamicScenario s(8, 16, packets);
  EXPECT_EQ(s.packets_total(), 4u);
  const std::vector<wu::mac::Arrival> listed = s.packets();
  EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end(),
                             [](const wu::mac::Arrival& a, const wu::mac::Arrival& b) {
                               return a.wake != b.wake ? a.wake < b.wake
                                                      : a.station < b.station;
                             }));
  EXPECT_EQ(s.stations(), (std::vector<wu::mac::StationId>{1, 3}));

  // Many runs, duplicate packets, an odd run count: the same order
  // std::sort gives.
  std::vector<wu::mac::Arrival> shuffled;
  wu::util::Rng rng(5);
  for (int i = 0; i < 301; ++i) {
    shuffled.push_back({static_cast<wu::mac::StationId>(rng.uniform(7)),
                        static_cast<wu::mac::Slot>(rng.uniform(40))});
  }
  std::vector<wu::mac::Arrival> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end(),
            [](const wu::mac::Arrival& a, const wu::mac::Arrival& b) {
              return a.wake != b.wake ? a.wake < b.wake : a.station < b.station;
            });
  EXPECT_EQ(DynamicScenario(8, 40, shuffled).packets(), sorted);

  EXPECT_THROW(DynamicScenario(8, 16, {{9, 0}}), std::invalid_argument);   // station >= n
  EXPECT_THROW(DynamicScenario(8, 16, {{1, 16}}), std::invalid_argument);  // slot >= horizon
  EXPECT_THROW(DynamicScenario(8, 0, {}), std::invalid_argument);          // horizon
}

// ------------------------------------------------------- engine bit-identity --

TEST(DynamicEngine, BatchMatchesInterpreterAcrossProtocolsAndArrivals) {
  EngineTuningGuard guard;
  for (const std::string& name : {std::string("round_robin"), std::string("wakeup_with_k"),
                                  std::string("wakeup_matrix"), std::string("wait_and_go")}) {
    const auto protocol = make_named(name, 128, 8, 5);
    ASSERT_TRUE(wu::sim::dynamic_batch_supports(*protocol)) << name;
    for (const ArrivalSpec& spec : generator_kinds()) {
      std::uint64_t seed = 100;
      const DynamicScenario scenario = make_scenario(spec, 128, 8, 700, ++seed);
      const auto reference = wu::sim::run_dynamic_interpreter(*protocol, scenario);
      expect_invariants(reference, scenario, name + "/" + spec.name());
      for (const std::size_t tile : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        wu::sim::set_tile_words(tile);
        const auto batch = wu::sim::run_dynamic_batch(*protocol, scenario);
        expect_identical(reference, batch,
                         name + "/" + spec.name() + "/tile=" + std::to_string(tile));
      }
      wu::sim::set_tile_words(0);
      wu::util::simd::set_force_scalar(true);
      const auto scalar = wu::sim::run_dynamic_batch(*protocol, scenario);
      wu::util::simd::set_force_scalar(false);
      expect_identical(reference, scalar, name + "/" + spec.name() + "/scalar");
    }
  }
  // The dense refill shape of the dynamic-throughput preset: many tiles put
  // back more delivered rows than they have words, so every width keeps
  // restarting its ramp.
  const auto energy = wu::sim::EnergyModel::kListenUntilWoken;
  for (const std::string& name : {std::string("wakeup_with_k"), std::string("round_robin")}) {
    const auto protocol = make_named(name, 256, 16, 7);
    const DynamicScenario scenario =
        make_scenario(ArrivalSpec::parse("poisson:0.8"), 256, 16, 2048, 29);
    const auto reference = wu::sim::run_dynamic_interpreter(*protocol, scenario, nullptr, energy);
    expect_invariants(reference, scenario, name + "/dense");
    for (std::size_t tile = 1; tile <= wu::sim::kMaxTileWords; ++tile) {
      wu::sim::set_tile_words(tile);
      EXPECT_EQ(wu::sim::run_dynamic_batch(*protocol, scenario, nullptr, energy), reference)
          << name << "/dense/tile=" << tile;
    }
    wu::sim::set_tile_words(0);
  }
}

TEST(DynamicEngine, EmptyAndSinglePacketScenarios) {
  const auto protocol = make_named("round_robin", 32, 4, 1);
  const DynamicScenario empty(32, 64, {});
  const auto r0 = wu::sim::dispatch_dynamic(*protocol, empty);
  EXPECT_EQ(r0.delivered, 0u);
  EXPECT_EQ(r0.silences, 64u);
  EXPECT_EQ(r0.jain(), 1.0);
  expect_identical(wu::sim::run_dynamic_interpreter(*protocol, empty),
                   wu::sim::run_dynamic_batch(*protocol, empty), "empty");

  const DynamicScenario one(32, 64, {{5, 10}});
  const auto r1 = wu::sim::dispatch_dynamic(*protocol, one);
  EXPECT_EQ(r1.delivered, 1u);
  ASSERT_EQ(r1.latency.size(), 1u);
  EXPECT_GE(r1.latency[0], 1.0);
  expect_identical(wu::sim::run_dynamic_interpreter(*protocol, one),
                   wu::sim::run_dynamic_batch(*protocol, one), "one");
}

TEST(DynamicEngine, SaturatedSingleStationDrainsBackToBack) {
  // One station, a burst of 10 packets at slot 0: with no contention every
  // head-of-line packet is delivered at its first scheduled transmission.
  const auto protocol = make_named("round_robin", 16, 1, 1);
  std::vector<wu::mac::Arrival> burst(10, {3, 0});
  const DynamicScenario scenario(16, 16 * 10 + 8, burst);
  const auto r = wu::sim::dispatch_dynamic(*protocol, scenario);
  EXPECT_EQ(r.delivered, 10u);
  EXPECT_EQ(r.collisions, 0u);
  expect_invariants(r, scenario, "saturated");
  expect_identical(wu::sim::run_dynamic_interpreter(*protocol, scenario), r, "saturated");
}

TEST(DynamicEngine, InterpreterServesAdaptiveRecontenders) {
  for (const std::string& name :
       {std::string("binary_backoff"), std::string("slotted_aloha"),
        std::string("adaptive_cw")}) {
    const auto protocol = make_named(name, 64, 8, 17);
    EXPECT_FALSE(wu::sim::dynamic_batch_supports(*protocol)) << name;
    const DynamicScenario scenario =
        make_scenario(ArrivalSpec::parse("poisson:0.3"), 64, 8, 600, 23);
    const auto r = wu::sim::run_dynamic_interpreter(*protocol, scenario);
    expect_invariants(r, scenario, name);
    EXPECT_GT(r.delivered, 0u) << name;
    // kAuto falls back to the interpreter; kBatch refuses.
    expect_identical(wu::sim::dispatch_dynamic(*protocol, scenario), r, name);
    EXPECT_THROW((void)wu::sim::run_dynamic_batch(*protocol, scenario),
                 std::invalid_argument)
        << name;
  }
}

// ------------------------------------------ per-slot re-contender reference --
//
// A per-slot dynamic loop and per-slot bodies of the three re-contender
// stations, seeded as the registry seeds them: every slot visits every
// backlogged station, and energy is counted slot by slot.  The event-driven
// interpreter skips the slots before each station's next_event; these pin
// that it reproduces the per-slot semantics bit for bit.

namespace per_slot {

namespace mac = wu::mac;
namespace proto = wu::proto;
namespace util = wu::util;
using proto::ChannelFeedback;
using proto::DynamicStation;
using proto::Slot;
using wu::sim::DynamicResult;
using wu::sim::EnergyModel;
using wu::sim::ImpairmentPlan;

class BackoffStation final : public DynamicStation {
 public:
  BackoffStation(std::uint32_t initial_window, unsigned max_window_log2, util::Rng rng)
      : initial_window_(initial_window), max_window_log2_(max_window_log2), rng_(rng) {
    window_ = initial_window_;
  }

  void packet_start(Slot start) override { open_window(start); }

  [[nodiscard]] bool transmits(Slot t) override {
    if (t >= window_end_) {
      if (window_ < (std::uint64_t{1} << max_window_log2_)) window_ *= 2;
      open_window(window_end_);
      // Idle gaps (empty queue) can leave window_end_ far behind t; those
      // skipped windows saw no traffic from us, so they do not double.
      while (t >= window_end_) open_window(window_end_);
    }
    return t == pick_;
  }

  void feedback(Slot t, ChannelFeedback fb, bool delivered) override {
    (void)t;
    (void)fb;
    if (delivered) window_ = std::max<std::uint64_t>(window_ / 2, initial_window_);
  }

 private:
  void open_window(Slot start) {
    window_end_ = start + static_cast<Slot>(window_);
    pick_ = start + static_cast<Slot>(rng_.uniform(window_));
  }

  std::uint32_t initial_window_;
  unsigned max_window_log2_;
  std::uint64_t window_;
  Slot window_end_ = 0;
  Slot pick_ = 0;
  util::Rng rng_;
};

class AlohaStation final : public DynamicStation {
 public:
  AlohaStation(double p, util::Rng rng) : p_(p), rng_(rng) {}

  void packet_start(Slot start) override { (void)start; }

  [[nodiscard]] bool transmits(Slot t) override {
    (void)t;
    return rng_.bernoulli(p_);
  }

 private:
  double p_;
  util::Rng rng_;
};

class CwWindow {
 public:
  CwWindow(std::uint32_t cw_min, unsigned cw_max_log2, util::Rng rng)
      : cw_min_(std::max<std::uint32_t>(1, cw_min)),
        cw_max_(std::uint64_t{1} << (cw_max_log2 > 30 ? 30 : cw_max_log2)),
        cw_(cw_min_),
        rng_(rng) {}

  void open(Slot start, unsigned penalty) {
    const std::uint64_t effective = std::min<std::uint64_t>(cw_ << penalty, cw_max_);
    window_end_ = start + static_cast<Slot>(effective);
    pick_ = start + static_cast<Slot>(rng_.uniform(effective));
  }

  bool transmits(Slot t, unsigned penalty) {
    if (t >= window_end_) {
      cw_ = std::min<std::uint64_t>(cw_ * 2, cw_max_);
      open(window_end_, penalty);
      while (t >= window_end_) open(window_end_, penalty);
    }
    return t == pick_;
  }

  void on_delivery() { cw_ = std::max<std::uint64_t>(cw_ / 2, cw_min_); }

 private:
  std::uint32_t cw_min_;
  std::uint64_t cw_max_;
  std::uint64_t cw_;
  Slot window_end_ = 0;
  Slot pick_ = 0;
  util::Rng rng_;
};

class AdaptiveCwStation final : public DynamicStation {
 public:
  AdaptiveCwStation(const proto::AdaptiveCwProtocol::Config& config, util::Rng rng)
      : config_(config),
        window_(config.cw_min, config.cw_max_log2, rng),
        epoch_end_(config.epoch) {}

  void packet_start(Slot start) override { window_.open(start, penalty_); }

  [[nodiscard]] bool transmits(Slot t) override { return window_.transmits(t, penalty_); }

  void feedback(Slot t, ChannelFeedback fb, bool delivered) override {
    if (fb == ChannelFeedback::kSuccess) {
      ++heard_in_epoch_;
      if (delivered) {
        ++own_in_epoch_;
        window_.on_delivery();
      }
    }
    if (t >= epoch_end_) {
      settle_epoch();
      epoch_end_ = t + config_.epoch;
    }
  }

 private:
  void settle_epoch() {
    if (heard_in_epoch_ >= 4) {
      const double share =
          static_cast<double>(own_in_epoch_) / static_cast<double>(heard_in_epoch_);
      const double target = 1.0 / static_cast<double>(std::max<std::uint32_t>(1, config_.k));
      if (share > target * (1.0 + config_.tolerance)) {
        penalty_ = std::min(penalty_ + 1, 4u);
      } else if (share < target / (1.0 + config_.tolerance) && penalty_ > 0) {
        --penalty_;
      }
    }
    own_in_epoch_ = 0;
    heard_in_epoch_ = 0;
  }

  proto::AdaptiveCwProtocol::Config config_;
  CwWindow window_;
  unsigned penalty_ = 0;
  Slot epoch_end_;
  std::uint64_t own_in_epoch_ = 0;
  std::uint64_t heard_in_epoch_ = 0;
};

/// The stations as the registry seeds them for (name, k, seed).
std::unique_ptr<DynamicStation> make_station(const std::string& name, std::uint32_t k,
                                             std::uint64_t seed, mac::StationId u) {
  if (name == "binary_backoff") {
    util::Rng rng(util::hash_words({seed, 0x44424f4646ULL /* "DBOFF" */, u}));
    return std::make_unique<BackoffStation>(2, 20, rng);
  }
  if (name == "slotted_aloha") {
    util::Rng rng(util::hash_words({seed, 0x44414c4f4841ULL /* "DALOHA" */, u}));
    return std::make_unique<AlohaStation>(1.0 / static_cast<double>(k < 1 ? 1 : k), rng);
  }
  proto::AdaptiveCwProtocol::Config config;
  config.k = std::max<std::uint32_t>(1, k);
  config.seed = seed;
  util::Rng rng(util::hash_words({seed, 0x414357ULL /* "ACW" */, u}));
  return std::make_unique<AdaptiveCwStation>(config, rng);
}

struct StationQueues {
  std::vector<mac::StationId> ids;            // ascending
  std::vector<std::vector<mac::Slot>> slots;  // per station, ascending

  explicit StationQueues(const mac::DynamicScenario& scenario) : ids(scenario.stations()) {
    slots.resize(ids.size());
    for (const mac::Arrival& p : scenario.packets()) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), p.station);
      slots[static_cast<std::size_t>(it - ids.begin())].push_back(p.wake);
    }
  }
};

using StationFactory = std::function<std::unique_ptr<DynamicStation>(mac::StationId)>;

DynamicResult run(const StationFactory& make_dynamic_station,
                  const mac::DynamicScenario& scenario, const ImpairmentPlan* plan,
                  EnergyModel energy) {
  DynamicResult result;
  result.horizon = scenario.horizon();
  result.arrivals = scenario.packets_total();
  result.stations = scenario.stations();
  result.delivered_per_station.assign(result.stations.size(), 0);
  if (plan != nullptr && plan->clean()) plan = nullptr;
  if (energy != EnergyModel::kOff) {
    result.station_energy.assign(result.stations.size(), 0);
    result.station_transmits.assign(result.stations.size(), 0);
  }

  const StationQueues queues(scenario);

  struct Active {
    mac::StationId id;
    std::size_t index;
    const std::vector<mac::Slot>* arr;
    std::size_t admitted = 0;
    std::size_t head = 0;
    mac::Slot crash_cutoff = -1;
    bool byzantine = false;
    std::unique_ptr<DynamicStation> dyn;

    [[nodiscard]] bool backlogged() const noexcept { return head < admitted; }
    [[nodiscard]] bool follows(mac::Slot t) const noexcept {
      return !byzantine && (crash_cutoff < 0 || t < crash_cutoff);
    }
  };

  std::vector<Active> stations;
  stations.reserve(queues.ids.size());
  for (std::size_t i = 0; i < queues.ids.size(); ++i) {
    Active st;
    st.id = queues.ids[i];
    st.index = i;
    st.arr = &queues.slots[i];
    if (plan != nullptr) {
      st.crash_cutoff = plan->crash_cutoff(st.id);
      st.byzantine = plan->is_byzantine(st.id);
    }
    st.dyn = make_dynamic_station(st.id);
    stations.push_back(std::move(st));
  }

  mac::Channel channel(mac::FeedbackModel::kNone);
  std::vector<Active*> transmitters;
  const mac::Slot horizon = scenario.horizon();
  std::uint64_t silences = 0, collisions = 0, delivered = 0;

  for (mac::Slot t = 0; t < horizon; ++t) {
    for (Active& st : stations) {
      const auto& arr = *st.arr;
      const bool was_backlogged = st.backlogged();
      while (st.admitted < arr.size() && arr[st.admitted] == t) ++st.admitted;
      if (!was_backlogged && st.backlogged() && st.follows(t)) st.dyn->packet_start(t);
    }

    transmitters.clear();
    for (Active& st : stations) {
      if (st.backlogged() && st.follows(t) && st.dyn->transmits(t)) {
        transmitters.push_back(&st);
        if (energy != EnergyModel::kOff) ++result.station_transmits[st.index];
      }
    }
    if (energy != EnergyModel::kOff) {
      for (const Active& st : stations) {
        if (!st.follows(t)) continue;
        if (energy == EnergyModel::kListenAll || st.backlogged()) {
          ++result.station_energy[st.index];
        }
      }
    }

    mac::SlotOutcome outcome;
    if (plan != nullptr) {
      outcome = plan->effective_outcome(t, transmitters.size());
      switch (outcome) {
        case mac::SlotOutcome::kSilence:
          ++silences;
          break;
        case mac::SlotOutcome::kSuccess:
          ++delivered;
          break;
        case mac::SlotOutcome::kCollision:
          ++collisions;
          break;
      }
    } else {
      outcome = channel.transmit(transmitters.size());
    }
    const mac::ChannelFeedback fb = channel.feedback(outcome);
    Active* winner =
        outcome == mac::SlotOutcome::kSuccess ? transmitters.front() : nullptr;
    for (Active& st : stations) {
      if (st.backlogged() && st.follows(t)) st.dyn->feedback(t, fb, &st == winner);
    }

    if (winner != nullptr) {
      result.latency.push_back(
          static_cast<double>(t - (*winner->arr)[winner->head] + 1));
      ++result.delivered_per_station[winner->index];
      ++winner->head;
      if (winner->backlogged() && winner->follows(t + 1)) {
        winner->dyn->packet_start(t + 1);
      }
    }
  }

  result.silences = plan != nullptr ? silences : channel.silences();
  result.collisions = plan != nullptr ? collisions : channel.collisions();
  result.delivered = plan != nullptr ? delivered : channel.successes();
  result.backlog = result.arrivals - result.delivered;
  return result;
}

}  // namespace per_slot

/// Forwards the three per-slot calls to a real station but keeps the
/// default next_event, so the event loop visits it every backlogged slot:
/// each station's next_event override is checked against its own per-slot
/// behaviour.
class EverySlotStation final : public wu::proto::DynamicStation {
 public:
  explicit EverySlotStation(std::unique_ptr<wu::proto::DynamicStation> inner)
      : inner_(std::move(inner)) {}

  void packet_start(wu::mac::Slot start) override { inner_->packet_start(start); }
  [[nodiscard]] bool transmits(wu::mac::Slot t) override { return inner_->transmits(t); }
  void feedback(wu::mac::Slot t, wu::mac::ChannelFeedback fb, bool delivered) override {
    inner_->feedback(t, fb, delivered);
  }

 private:
  std::unique_ptr<wu::proto::DynamicStation> inner_;
};

class EverySlotProtocol final : public wu::proto::Protocol {
 public:
  explicit EverySlotProtocol(wu::proto::ProtocolPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<wu::proto::StationRuntime> make_runtime(
      wu::mac::StationId u, wu::mac::Slot wake) const override {
    return inner_->make_runtime(u, wake);
  }
  [[nodiscard]] std::unique_ptr<wu::proto::DynamicStation> make_dynamic_station(
      wu::mac::StationId u) const override {
    return std::make_unique<EverySlotStation>(inner_->make_dynamic_station(u));
  }

 private:
  wu::proto::ProtocolPtr inner_;
};

TEST(DynamicEngine, RecontendersMatchPerSlotReference) {
  const std::vector<std::string> arrivals = {"poisson:0.05", "poisson:0.9", "bursty:0.4:0.05",
                                             "pareto:1.5:0.3"};
  // crash:0.5:300 cuts stations off between adaptive_cw's epoch ends at
  // 256 and 384, after successes they skipped and never get to hear.
  const std::vector<std::string> impairments = {
      "none",           "noise:iid:0.05",  "jam:budget:16:random",
      "crash:0.25:100", "byzantine:0.125",
      "noise:iid:0.05+jam:budget:16:random+crash:0.25:100+byzantine:0.125",
      "crash:0.5:300"};
  const std::vector<wu::sim::EnergyModel> energies = {wu::sim::EnergyModel::kOff,
                                                      wu::sim::EnergyModel::kListenAll,
                                                      wu::sim::EnergyModel::kListenUntilWoken};
  struct Shape {
    std::uint32_t n, k;
  };
  // k = 1 runs ALOHA at p = 1; short horizons make its draw-ahead hit the
  // limit, where a later heard success must not draw again.  63, 64 and 65
  // end inside ALOHA's first 64-coin word, on its boundary and just past.
  const std::vector<Shape> shapes = {{8, 1}, {64, 6}, {256, 16}};
  const std::vector<wu::mac::Slot> horizons = {2048, 777, 130, 65, 64, 63};

  std::size_t configs = 0;
  for (const std::string& name :
       {std::string("binary_backoff"), std::string("slotted_aloha"),
        std::string("adaptive_cw")}) {
    for (const Shape& shape : shapes) {
      const std::uint64_t seed = 31 + shape.k;
      const auto protocol = make_named(name, shape.n, shape.k, seed);
      const EverySlotProtocol every_slot(protocol);
      const per_slot::StationFactory reference_station = [&](wu::mac::StationId u) {
        return per_slot::make_station(name, shape.k, seed, u);
      };
      for (const wu::mac::Slot horizon : horizons) {
        for (const std::string& arrival : arrivals) {
          const DynamicScenario scenario = make_scenario(
              ArrivalSpec::parse(arrival), shape.n, shape.k, horizon, horizon + shape.n);
          for (const std::string& impairment : impairments) {
            const auto plan =
                wu::sim::compile_impairment(wu::mac::ImpairmentSpec::parse(impairment),
                                            horizon ^ shape.k, horizon, &scenario.stations());
            for (const wu::sim::EnergyModel energy : energies) {
              const std::string label = name + " n=" + std::to_string(shape.n) +
                                        " k=" + std::to_string(shape.k) + " h=" +
                                        std::to_string(horizon) + " " + arrival + " " +
                                        impairment + " energy=" +
                                        wu::sim::energy_model_name(energy);
              const auto expected = per_slot::run(reference_station, scenario, &plan, energy);
              EXPECT_EQ(wu::sim::run_dynamic_interpreter(*protocol, scenario, &plan, energy),
                        expected)
                  << label;
              EXPECT_EQ(wu::sim::run_dynamic_interpreter(every_slot, scenario, &plan, energy),
                        expected)
                  << label << " (every slot)";
              ++configs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 3u * 3u * 6u * 4u * 7u * 3u);
}

/// Forwards every call to a real station but claims not to hear others'
/// successes, so the event loop skips them.
class DeafStation final : public wu::proto::DynamicStation {
 public:
  explicit DeafStation(std::unique_ptr<wu::proto::DynamicStation> inner)
      : inner_(std::move(inner)) {}

  void packet_start(wu::mac::Slot start) override { inner_->packet_start(start); }
  [[nodiscard]] wu::mac::Slot next_event(wu::mac::Slot t, wu::mac::Slot limit) override {
    return inner_->next_event(t, limit);
  }
  [[nodiscard]] bool transmits(wu::mac::Slot t) override { return inner_->transmits(t); }
  [[nodiscard]] bool hears_others() const override { return false; }
  void feedback(wu::mac::Slot t, wu::mac::ChannelFeedback fb, bool delivered) override {
    inner_->feedback(t, fb, delivered);
  }

 private:
  std::unique_ptr<wu::proto::DynamicStation> inner_;
};

class DeafProtocol final : public wu::proto::Protocol {
 public:
  explicit DeafProtocol(wu::proto::ProtocolPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<wu::proto::StationRuntime> make_runtime(
      wu::mac::StationId u, wu::mac::Slot wake) const override {
    return inner_->make_runtime(u, wake);
  }
  [[nodiscard]] std::unique_ptr<wu::proto::DynamicStation> make_dynamic_station(
      wu::mac::StationId u) const override {
    return std::make_unique<DeafStation>(inner_->make_dynamic_station(u));
  }

 private:
  wu::proto::ProtocolPtr inner_;
};

// Negative control: adaptive_cw counts the successes it hears, so the same
// stations made deaf must drift from the per-slot reference — the check
// above sees a skipped success that mattered.
TEST(DynamicEngine, DeafAdaptiveCwDiffersFromPerSlotReference) {
  const std::vector<std::string> arrivals = {"poisson:0.4", "poisson:0.9", "bursty:0.4:0.05"};
  std::size_t trials = 0;
  for (const std::uint32_t k : {6u, 16u}) {
    const std::uint32_t n = 16 * k;
    for (const std::uint64_t seed : {3u, 5u, 8u, 13u, 21u}) {
      const auto protocol = make_named("adaptive_cw", n, k, seed);
      const DeafProtocol deaf(protocol);
      const per_slot::StationFactory reference_station = [&](wu::mac::StationId u) {
        return per_slot::make_station("adaptive_cw", k, seed, u);
      };
      for (const std::string& arrival : arrivals) {
        const DynamicScenario scenario =
            make_scenario(ArrivalSpec::parse(arrival), n, k, 2048, seed * 7 + k);
        const auto expected =
            per_slot::run(reference_station, scenario, nullptr, wu::sim::EnergyModel::kOff);
        ASSERT_EQ(wu::sim::run_dynamic_interpreter(*protocol, scenario), expected);
        EXPECT_NE(wu::sim::run_dynamic_interpreter(deaf, scenario), expected)
            << arrival << " k=" << k << " seed=" << seed;
        ++trials;
      }
    }
  }
  EXPECT_EQ(trials, 30u);
}

// ------------------------------------------------ arrival stream reference --
//
// The arrival streams as first written: stations in Floyd draw order, a
// per-slot bernoulli pair for bursty, log1p per Poisson packet.  The
// generator draws the same substreams into its station-major layout, in id
// order and with integer-threshold coins; these pin that not one draw
// moved.

namespace stream_reference {

namespace mac = wu::mac;
namespace util = wu::util;

std::vector<mac::StationId> choose_stations(std::uint32_t n, std::uint32_t k, util::Rng& rng) {
  std::vector<mac::StationId> out;
  std::vector<bool> chosen(n, false);
  for (std::uint32_t j = n - k; j < n; ++j) {
    const auto t = static_cast<mac::StationId>(rng.uniform(j + 1));
    const mac::StationId pick = chosen[t] ? j : t;
    chosen[pick] = true;
    out.push_back(pick);
  }
  return out;
}

mac::Slot geometric_gap(double p, util::Rng& rng) {
  if (p >= 1.0) return 0;
  const double u = 1.0 - rng.uniform01();
  return static_cast<mac::Slot>(std::log(u) / std::log1p(-p));
}

std::vector<mac::Slot> stream(const ArrivalSpec& spec, double rate, mac::Slot horizon,
                              util::Rng& rng) {
  std::vector<mac::Slot> out;
  if (spec.kind == ArrivalKind::kPoisson) {
    const double p = std::min(1.0, rate);
    for (mac::Slot t = geometric_gap(p, rng); t < horizon; t += 1 + geometric_gap(p, rng)) {
      out.push_back(t);
    }
  } else if (spec.kind == ArrivalKind::kBursty) {
    const double p_on = std::min(1.0, 2.0 * rate);
    bool on = rng.bernoulli(0.5);
    for (mac::Slot t = 0; t < horizon; ++t) {
      if (on && rng.bernoulli(p_on)) out.push_back(t);
      if (rng.bernoulli(spec.param)) on = !on;
    }
  } else {
    const double x_m = (1.0 / rate) * (spec.param - 1.0) / spec.param;
    for (mac::Slot t = 0;;) {
      const double gap = x_m * std::pow(1.0 - rng.uniform01(), -1.0 / spec.param);
      if (gap > static_cast<double>(horizon - t)) break;
      t += std::max<mac::Slot>(1, static_cast<mac::Slot>(std::llround(gap)));
      if (t >= horizon) break;
      out.push_back(t);
    }
  }
  return out;
}

/// Every drawn station's stream, empty ones included, by id.
std::map<mac::StationId, std::vector<mac::Slot>> generate(const ArrivalSpec& spec,
                                                          std::uint32_t n, std::uint32_t k,
                                                          mac::Slot horizon, util::Rng& rng) {
  const std::vector<mac::StationId> stations = choose_stations(n, k, rng);
  std::map<mac::StationId, std::vector<mac::Slot>> streams;
  for (const mac::StationId u : stations) {
    util::Rng sub = rng.split(0x414252ULL ^ (std::uint64_t{u} << 24));
    streams[u] = stream(spec, spec.rate / static_cast<double>(k), horizon, sub);
  }
  return streams;
}

}  // namespace stream_reference

/// The station-major layout's invariants, and packets() as the sorted
/// flattening of it.
void expect_layout(const DynamicScenario& s, const std::string& label) {
  const std::vector<wu::mac::StationId>& ids = s.stations();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << label;
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end()) << label;
  std::vector<wu::mac::Arrival> flat;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::span<const wu::mac::Slot> slots = s.arrivals_of(i);
    EXPECT_FALSE(slots.empty()) << label << " station " << ids[i];
    EXPECT_TRUE(std::is_sorted(slots.begin(), slots.end())) << label << " station " << ids[i];
    for (const wu::mac::Slot t : slots) {
      EXPECT_GE(t, 0) << label;
      EXPECT_LT(t, s.horizon()) << label;
      flat.push_back({ids[i], t});
    }
  }
  EXPECT_EQ(flat.size(), s.packets_total()) << label;
  std::sort(flat.begin(), flat.end(), [](const wu::mac::Arrival& a, const wu::mac::Arrival& b) {
    return a.wake != b.wake ? a.wake < b.wake : a.station < b.station;
  });
  EXPECT_EQ(s.packets(), flat) << label;
}

TEST(ArrivalGeneration, StreamsMatchPerSlotReference) {
  struct Shape {
    std::uint32_t n, k;
    wu::mac::Slot horizon;
  };
  // Rates at and past the per-station caps: poisson p = 1 draws no gaps,
  // bursty p_on = 1 draws no arrival coins, switch probability 1 no flip
  // coins; pareto past k packs every slot.
  const std::vector<std::string> specs = {
      "poisson:0.05", "poisson:0.9",  "poisson:16",     "poisson:1e9",
      "bursty:0.4:0.05", "bursty:0.5:1", "bursty:8:0.1", "bursty:8:1",
      "pareto:1.5:0.3",  "pareto:2.5:0.9", "pareto:1.5:40"};
  const std::vector<Shape> shapes = {
      {256, 16, 2048}, {256, 16, 1}, {64, 1, 700}, {32, 32, 300}, {1, 1, 50}, {64, 13, 777}};
  for (const Shape& shape : shapes) {
    for (const std::string& text : specs) {
      const ArrivalSpec spec = ArrivalSpec::parse(text);
      for (const std::uint64_t seed : {3u, 1234u}) {
        const std::string label = text + " n=" + std::to_string(shape.n) + " k=" +
                                  std::to_string(shape.k) + " h=" +
                                  std::to_string(shape.horizon) + " seed=" + std::to_string(seed);
        wu::util::Rng rng(seed);
        wu::util::Rng reference_rng(seed);
        const DynamicScenario s =
            wu::mac::arrivals::generate(spec, shape.n, shape.k, shape.horizon, rng);
        const auto streams =
            stream_reference::generate(spec, shape.n, shape.k, shape.horizon, reference_rng);
        EXPECT_EQ(rng.next_u64(), reference_rng.next_u64()) << label;

        std::vector<wu::mac::StationId> expected_ids;
        for (const auto& [u, slots] : streams) {
          if (!slots.empty()) expected_ids.push_back(u);
        }
        ASSERT_EQ(s.stations(), expected_ids) << label;
        for (std::size_t i = 0; i < expected_ids.size(); ++i) {
          const std::span<const wu::mac::Slot> slots = s.arrivals_of(i);
          EXPECT_EQ(std::vector<wu::mac::Slot>(slots.begin(), slots.end()),
                    streams.at(expected_ids[i]))
              << label << " station " << expected_ids[i];
        }
        expect_layout(s, label);
      }
    }
  }
}

// Replayed packet lists group into the same layout (generated ones are
// checked against the stream reference above).
TEST(DynamicScenario, StationMajorLayout) {
  std::vector<wu::mac::Arrival> shuffled;
  wu::util::Rng rng(5);
  for (int i = 0; i < 301; ++i) {
    shuffled.push_back({static_cast<wu::mac::StationId>(rng.uniform(7)),
                        static_cast<wu::mac::Slot>(rng.uniform(40))});
  }
  expect_layout(DynamicScenario(8, 40, shuffled), "shuffled");
  expect_layout(DynamicScenario(8, 40, {}), "empty");
  expect_layout(DynamicScenario(16, 20, std::vector<wu::mac::Arrival>(10, {3, 0})), "burst");
}

// The integer form of uniform01() < p behind the bursty coins is exact on
// both sides of its threshold, for tiny, round and largest-below-one p.
TEST(ArrivalGeneration, BernoulliThresholdIsExactInIntegerForm) {
  wu::util::Rng rng(20130522);
  for (const double p : {0x1.0p-60, 0.05, 1.0 / 3.0, 0.5, 1.0 - 0x1.0p-53}) {
    const std::uint64_t threshold = wu::util::bernoulli_threshold(p);
    EXPECT_EQ(threshold, static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53))) << 11) << p;
    std::vector<std::uint64_t> draws = {threshold - 2048, threshold - 1, threshold,
                                        threshold + 2047};
    for (int i = 0; i < 64; ++i) draws.push_back(rng.next_u64());
    for (const std::uint64_t x : draws) {
      EXPECT_EQ(x < threshold, static_cast<double>(x >> 11) * 0x1.0p-53 < p)
          << "p=" << p << " x=" << x;
    }
  }
  EXPECT_EQ(wu::util::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(wu::util::bernoulli_threshold(std::nan("")), 0u);
}

// ----------------------------------------------------------- Run facade --

TEST(DynamicRun, SeedContractAndThreadCountDeterminism) {
  wu::sim::RunSpec spec;
  spec.make_protocol = [](std::uint64_t seed) { return make_named("wakeup_with_k", 128, 8, seed); };
  spec.horizon = 512;
  spec.arrival = ArrivalSpec::parse("poisson:0.4");
  spec.dynamic_n = 128;
  spec.dynamic_k = 8;
  spec.trials = 8;
  spec.base_seed = 42;
  spec.cell_tag = 99;

  std::vector<wu::sim::DynamicResult> inline_trials(spec.trials);
  spec.per_trial_dynamic = [&](std::uint64_t i, const wu::sim::DynamicResult& r) {
    inline_trials[i] = r;
  };
  wu::util::ThreadPool inline_pool(0);
  const auto inline_out = wu::sim::Run(spec, &inline_pool);

  std::vector<wu::sim::DynamicResult> pooled_trials(spec.trials);
  spec.per_trial_dynamic = [&](std::uint64_t i, const wu::sim::DynamicResult& r) {
    pooled_trials[i] = r;
  };
  wu::util::ThreadPool pool(4);
  const auto pooled_out = wu::sim::Run(spec, &pool);

  for (std::uint64_t i = 0; i < spec.trials; ++i) {
    expect_identical(inline_trials[i], pooled_trials[i], "trial " + std::to_string(i));
  }
  EXPECT_TRUE(inline_out.dynamic_mode);
  EXPECT_EQ(inline_out.trials.finalize().failures, 0u);
  EXPECT_EQ(inline_out.trials.finalize().throughput.mean,
            pooled_out.trials.finalize().throughput.mean);
  EXPECT_EQ(inline_out.trials.finalize().jain.mean, pooled_out.trials.finalize().jain.mean);
  EXPECT_EQ(inline_out.trials.finalize().latency.p99, pooled_out.trials.finalize().latency.p99);
  EXPECT_EQ(inline_out.trials.finalize().packet_arrivals,
            pooled_out.trials.finalize().packet_arrivals);

  // Same (base_seed, cell_tag) => same traffic, trial by trial.
  std::vector<wu::sim::DynamicResult> again(spec.trials);
  spec.per_trial_dynamic = [&](std::uint64_t i, const wu::sim::DynamicResult& r) {
    again[i] = r;
  };
  const auto rerun = wu::sim::Run(spec, &inline_pool);
  (void)rerun;
  for (std::uint64_t i = 0; i < spec.trials; ++i) {
    expect_identical(inline_trials[i], again[i], "rerun trial " + std::to_string(i));
  }
}

TEST(DynamicRun, FixedScenarioReplayAndValidation) {
  const auto protocol = make_named("round_robin", 32, 4, 1);
  const DynamicScenario scenario(32, 128, {{2, 0}, {7, 3}, {2, 50}});
  wu::sim::RunSpec spec;
  spec.protocol = protocol.get();
  spec.horizon = scenario.horizon();
  spec.scenario = &scenario;
  const auto out = wu::sim::Run(spec);
  EXPECT_TRUE(out.dynamic_mode);
  EXPECT_EQ(out.dynamic.arrivals, 3u);
  EXPECT_EQ(out.dynamic.delivered, 3u);
  EXPECT_EQ(out.trials.finalize().packet_arrivals, 3u);

  // Dynamic specs reject pattern sources, mc protocols, and static sinks.
  {
    wu::sim::RunSpec bad = spec;
    wu::mac::WakePattern pattern(32, {{2, 0}});
    bad.pattern = &pattern;
    EXPECT_THROW((void)wu::sim::Run(bad), std::invalid_argument);
  }
  {
    wu::sim::RunSpec bad = spec;
    bad.per_trial = [](std::uint64_t, const wu::sim::SimResult&) {};
    EXPECT_THROW((void)wu::sim::Run(bad), std::invalid_argument);
  }
  {
    wu::sim::RunSpec bad = spec;
    bad.scenario = nullptr;  // neither scenario nor generator parameters
    EXPECT_THROW((void)wu::sim::Run(bad), std::invalid_argument);
  }
  {
    // Static specs reject dynamic-only fields.
    wu::sim::RunSpec bad;
    bad.protocol = protocol.get();
    wu::mac::WakePattern pattern(32, {{2, 0}});
    bad.pattern = &pattern;
    bad.per_trial_dynamic = [](std::uint64_t, const wu::sim::DynamicResult&) {};
    EXPECT_THROW((void)wu::sim::Run(bad), std::invalid_argument);
  }
}

// ------------------------------------------------- capabilities and grids --

TEST(DynamicCapability, MarksPerPacketRecontenders) {
  // Dynamic = no start-time knowledge, no collision detection.
  for (const char* name : {"round_robin", "wakeup_with_k", "wakeup_matrix", "slotted_aloha",
                           "binary_backoff", "adaptive_cw", "rpd_n", "local_doubling"}) {
    EXPECT_TRUE(wu::proto::protocol_capabilities(name).dynamic) << name;
  }
  for (const char* name : {"wakeup_with_s", "select_among_the_first", "tree_splitting"}) {
    EXPECT_FALSE(wu::proto::protocol_capabilities(name).dynamic) << name;
  }
}

TEST(DynamicGrid, ExpandsArrivalAxisWithTaggedCells) {
  wu::exp::SweepSpec spec;
  spec.protocols = {"round_robin", "adaptive_cw"};
  spec.ns = {64};
  spec.ks = {8};
  spec.arrivals = wu::exp::parse_arrival_axis("poisson:0.2,bursty:0.5:0.1");
  spec.horizon = 256;
  spec.trials = 4;
  const auto cells = wu::exp::expand(spec);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.dynamic);
    EXPECT_EQ(cell.horizon, 256);
    EXPECT_NE(cell.tag.find(",arrival=" + cell.arrival.name() + ",horizon=256"),
              std::string::npos)
        << cell.tag;
  }
  // Static tags stay pre-dynamic byte-identical (no arrival suffix).
  wu::exp::SweepSpec static_spec;
  static_spec.protocols = {"round_robin"};
  static_spec.ns = {64};
  static_spec.ks = {8};
  const auto static_cells = wu::exp::expand(static_spec);
  ASSERT_EQ(static_cells.size(), 1u);
  EXPECT_EQ(static_cells[0].tag.find("arrival"), std::string::npos);
}

TEST(DynamicGrid, RejectsStaticOnlyProtocolsAndBadCombos) {
  wu::exp::SweepSpec spec;
  spec.protocols = {"wakeup_with_s"};
  spec.ns = {64};
  spec.ks = {8};
  spec.s = 0;
  spec.arrivals = {ArrivalSpec::parse("poisson:0.2")};
  spec.horizon = 256;
  EXPECT_THROW((void)wu::exp::expand(spec), std::invalid_argument);

  spec.protocols = {"round_robin"};
  spec.channels = {1, 4};
  EXPECT_THROW((void)wu::exp::expand(spec), std::invalid_argument);
  spec.channels = {1};

  spec.patterns = {wu::exp::PatternKind::kStaggered};
  EXPECT_THROW((void)wu::exp::expand(spec), std::invalid_argument);
  spec.patterns = {wu::exp::PatternKind::kUniform};

  spec.arrivals = {ArrivalSpec{.kind = ArrivalKind::kReplay}};
  EXPECT_THROW((void)wu::exp::expand(spec), std::invalid_argument);
}

}  // namespace
