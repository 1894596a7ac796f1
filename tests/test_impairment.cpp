/// mac/impairment + sim/impairment_engine: grammar round-trips, parse
/// errors, and the determinism/budget/fault contracts of compiled plans.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "mac/impairment.hpp"
#include "sim/impairment_engine.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/rng.hpp"

namespace wu = wakeup;

namespace {

std::size_t word_count(wu::mac::Slot horizon) {
  return static_cast<std::size_t>((horizon + 63) / 64);
}

/// Every noise word of the horizon, read in ascending order.
std::vector<std::uint64_t> noise_words(const wu::sim::ImpairmentPlan& plan) {
  std::vector<std::uint64_t> words(word_count(plan.horizon));
  for (std::size_t w = 0; w < words.size(); ++w) words[w] = plan.noise_word(w);
  return words;
}

/// Every corrupt word of the horizon, read in ascending order.
std::vector<std::uint64_t> corrupt_words(const wu::sim::ImpairmentPlan& plan) {
  std::vector<std::uint64_t> words(word_count(plan.horizon));
  for (std::size_t w = 0; w < words.size(); ++w) words[w] = plan.corrupt_word(w);
  return words;
}

std::uint64_t popcount_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t count = 0;
  for (const std::uint64_t w : words) count += static_cast<std::uint64_t>(std::popcount(w));
  return count;
}

std::vector<wu::mac::StationId> station_range(std::uint32_t count) {
  std::vector<wu::mac::StationId> out(count);
  std::iota(out.begin(), out.end(), wu::mac::StationId{0});
  return out;
}

TEST(ImpairmentSpec, NameRoundTripsParse) {
  // Every canonical spelling must survive parse() -> name() unchanged —
  // the tag/seed contract depends on the text being stable.
  const std::vector<std::string> canonical = {
      "none",
      "noise:iid:0.05",
      "noise:bursty:0.1:0.02",
      "jam:budget:8:front",
      "jam:budget:16:spread",
      "jam:budget:32:random",
      "jam:budget:64:adversarial",
      "crash:0.25",
      "crash:0.5:128",
      "byzantine:0.1",
      "noise:iid:0.01+jam:budget:16:random",
      "noise:bursty:0.2:0.1+jam:budget:8:front+crash:0.25:64+byzantine:0.1",
  };
  for (const std::string& text : canonical) {
    EXPECT_EQ(wu::mac::ImpairmentSpec::parse(text).name(), text) << text;
  }
  // The default jam schedule is spelled explicitly by name().
  EXPECT_EQ(wu::mac::ImpairmentSpec::parse("jam:budget:4").name(), "jam:budget:4:random");
  // An empty string is the clean channel.
  EXPECT_TRUE(wu::mac::ImpairmentSpec::parse("").clean());
  EXPECT_EQ(wu::mac::ImpairmentSpec::parse("none").name(), "none");
}

TEST(ImpairmentSpec, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "nois:iid:0.1",        // unknown clause
      "noise:gauss:0.1",     // unknown family
      "noise:iid",           // missing P
      "noise:iid:0",         // P out of range
      "noise:iid:1.5",       // P out of range
      "noise:iid:abc",       // non-numeric
      "noise:bursty:0.1",    // missing SWITCH
      "noise:bursty:1:0.5",  // bursty P must be < 1
      "jam:16",              // missing "budget"
      "jam:budget:0",        // budget must be >= 1
      "jam:budget:8:never",  // unknown schedule
      "crash:0",             // fraction out of range
      "crash:0.5:-3",        // negative cutoff
      "byzantine:1.01",      // fraction out of range
      "crash:0.7+byzantine:0.7",  // fractions exceed the population
      "none+noise:iid:0.1",  // none cannot combine
      "noise:iid:0.1+noise:iid:0.2",  // duplicate clause
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)wu::mac::ImpairmentSpec::parse(text), std::invalid_argument) << text;
  }
}

TEST(ImpairmentEngine, PlansAreDeterministicInSeedAndSpec) {
  const auto spec = wu::mac::ImpairmentSpec::parse(
      "noise:bursty:0.1:0.05+jam:budget:32:random+crash:0.25+byzantine:0.1");
  const auto stations = station_range(64);
  const auto a = wu::sim::compile_impairment(spec, 42, 4096, &stations);
  const auto b = wu::sim::compile_impairment(spec, 42, 4096, &stations);
  // Every word of the horizon, read through the accessors (the plan
  // realizes its words on first read, so there is no array to compare).
  EXPECT_EQ(noise_words(a), noise_words(b));
  EXPECT_EQ(corrupt_words(a), corrupt_words(b));
  EXPECT_GT(popcount_words(noise_words(a)), 0u);
  EXPECT_GT(popcount_words(corrupt_words(a)), 0u);
  EXPECT_EQ(a.jam_slots, b.jam_slots);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.byzantine, b.byzantine);
  // A different seed realizes differently (overwhelmingly likely at this
  // size) — the plan is a function of the seed, not just the spec.
  const auto c = wu::sim::compile_impairment(spec, 43, 4096, &stations);
  EXPECT_NE(noise_words(a), noise_words(c));
}

TEST(ImpairmentEngine, JamBudgetIsExactAndClamped) {
  for (const char* sched : {"front", "spread", "random"}) {
    const auto spec =
        wu::mac::ImpairmentSpec::parse("jam:budget:48:" + std::string(sched));
    const auto plan = wu::sim::compile_impairment(spec, 7, 1024);
    EXPECT_EQ(plan.jam_slots.size(), 48u) << sched;
    EXPECT_EQ(popcount_words(corrupt_words(plan)), 48u) << sched;
    // Ascending, distinct, inside the horizon.
    std::set<wu::mac::Slot> distinct(plan.jam_slots.begin(), plan.jam_slots.end());
    EXPECT_EQ(distinct.size(), plan.jam_slots.size()) << sched;
    EXPECT_TRUE(std::is_sorted(plan.jam_slots.begin(), plan.jam_slots.end())) << sched;
    EXPECT_GE(plan.jam_slots.front(), 0) << sched;
    EXPECT_LT(plan.jam_slots.back(), 1024) << sched;
    EXPECT_EQ(plan.corrupted_in(0, 1024), 48u) << sched;
  }
  // A budget past the horizon jams every slot, nothing more.
  const auto flood = wu::sim::compile_impairment(
      wu::mac::ImpairmentSpec::parse("jam:budget:9999:random"), 7, 100);
  EXPECT_EQ(flood.jam_slots.size(), 100u);
  EXPECT_EQ(flood.corrupted_in(0, 100), 100u);
}

TEST(ImpairmentEngine, FaultDrawsAreExactAndDisjoint) {
  const auto spec = wu::mac::ImpairmentSpec::parse("crash:0.25+byzantine:0.125");
  const auto stations = station_range(64);
  const auto plan = wu::sim::compile_impairment(spec, 11, 2048, &stations);
  EXPECT_EQ(plan.crashes.size(), 16u);    // 0.25 * 64
  EXPECT_EQ(plan.byzantine.size(), 8u);   // 0.125 * 64
  for (const auto& [station, cutoff] : plan.crashes) {
    EXPECT_FALSE(plan.is_byzantine(station)) << station;  // disjoint draws
    EXPECT_GE(cutoff, 0);
    EXPECT_LT(cutoff, 2048);
    EXPECT_EQ(plan.crash_cutoff(station), cutoff);
    EXPECT_FALSE(plan.participates(station, cutoff));
    EXPECT_TRUE(cutoff == 0 || plan.participates(station, cutoff - 1)) << station;
  }
  for (const auto u : plan.byzantine) EXPECT_FALSE(plan.participates(u, 0)) << u;
  EXPECT_EQ(plan.crash_cutoff(/*u=*/63 + 1), -1);  // out-of-population station

  // A fixed cutoff slot pins every crash to it.
  const auto fixed = wu::sim::compile_impairment(
      wu::mac::ImpairmentSpec::parse("crash:0.5:77"), 11, 2048, &stations);
  EXPECT_EQ(fixed.crashes.size(), 32u);
  for (const auto& [station, cutoff] : fixed.crashes) EXPECT_EQ(cutoff, 77) << station;

  // Fault clauses without a station population are a contract violation;
  // an empty population (a dynamic trial without arrivals) draws no faults.
  EXPECT_THROW((void)wu::sim::compile_impairment(spec, 11, 2048), std::invalid_argument);
  const std::vector<wu::mac::StationId> nobody;
  const auto empty = wu::sim::compile_impairment(spec, 11, 2048, &nobody);
  EXPECT_TRUE(empty.crashes.empty());
  EXPECT_TRUE(empty.byzantine.empty());
}

TEST(ImpairmentEngine, EffectiveOutcomeMatchesWordAlgebra) {
  const auto stations = station_range(8);
  const auto plan = wu::sim::compile_impairment(
      wu::mac::ImpairmentSpec::parse("noise:iid:0.3+jam:budget:64:random"), 3, 512,
      &stations);
  for (wu::mac::Slot t = 0; t < 512; ++t) {
    for (std::size_t transmitters = 0; transmitters <= 2; ++transmitters) {
      const auto outcome = plan.effective_outcome(t, transmitters);
      if (plan.corrupted(t) || transmitters > 1) {
        EXPECT_EQ(outcome, wu::mac::SlotOutcome::kCollision) << t;
      } else if (transmitters == 0) {
        EXPECT_EQ(outcome, wu::mac::SlotOutcome::kSilence) << t;  // noise is inaudible
      } else {
        EXPECT_EQ(outcome, plan.noisy(t) ? wu::mac::SlotOutcome::kCollision
                                         : wu::mac::SlotOutcome::kSuccess)
            << t;
      }
    }
  }
  // Beyond the compiled horizon the channel degrades to clean.
  EXPECT_EQ(plan.effective_outcome(512, 1), wu::mac::SlotOutcome::kSuccess);
  EXPECT_EQ(plan.effective_outcome(1 << 20, 0), wu::mac::SlotOutcome::kSilence);
  EXPECT_EQ(plan.corrupted_in(512, 1 << 20), 0u);
}

TEST(ImpairmentEngine, JamOverrideReplacesTheSchedule) {
  const auto spec = wu::mac::ImpairmentSpec::parse("jam:budget:4:adversarial");
  // Adversarial without an override is an error (the search resolves it).
  EXPECT_THROW((void)wu::sim::compile_impairment(spec, 5, 256), std::invalid_argument);
  const std::vector<wu::mac::Slot> slots = {3, 3, 600, -1, 17, 9};  // dup + out of range
  const auto plan = wu::sim::compile_impairment(spec, 5, 256, nullptr, &slots);
  EXPECT_EQ(plan.jam_slots, (std::vector<wu::mac::Slot>{3, 9, 17}));
  EXPECT_TRUE(plan.corrupted(3));
  EXPECT_TRUE(plan.corrupted(9));
  EXPECT_TRUE(plan.corrupted(17));
  EXPECT_EQ(plan.corrupted_in(0, 256), 3u);
}

// -------------------------------------------- eager reference realization --

using wu::mac::Slot;

void set_slot_bit(std::vector<std::uint64_t>& words, Slot t) {
  words[static_cast<std::size_t>(t) / 64] |= std::uint64_t{1}
                                             << (static_cast<std::size_t>(t) % 64);
}

Slot geometric_gap(double p, wu::util::Rng& rng) {
  if (p >= 1.0) return 0;
  const double u = 1.0 - rng.uniform01();
  return static_cast<Slot>(std::log(u) / std::log1p(-p));
}

/// A plan's words as the compiler once realized them: every word of the
/// horizon up front, one clause loop at a time, from the same substreams.
struct EagerWords {
  std::vector<std::uint64_t> noise;
  std::vector<std::uint64_t> corrupt;
  std::vector<Slot> jam_slots;

  [[nodiscard]] std::uint64_t noise_word(std::size_t w) const {
    return w < noise.size() ? noise[w] : 0;
  }
  [[nodiscard]] std::uint64_t corrupt_word(std::size_t w) const {
    return w < corrupt.size() ? corrupt[w] : 0;
  }
  [[nodiscard]] bool bit(const std::vector<std::uint64_t>& words, Slot t) const {
    const auto w = static_cast<std::size_t>(t) / 64;
    return t >= 0 && w < words.size() && ((words[w] >> (static_cast<std::size_t>(t) % 64)) & 1);
  }
  [[nodiscard]] wu::mac::SlotOutcome outcome(Slot t, std::size_t transmitters) const {
    if (bit(corrupt, t)) return wu::mac::SlotOutcome::kCollision;
    if (transmitters == 0) return wu::mac::SlotOutcome::kSilence;
    if (transmitters > 1) return wu::mac::SlotOutcome::kCollision;
    return bit(noise, t) ? wu::mac::SlotOutcome::kCollision : wu::mac::SlotOutcome::kSuccess;
  }
  [[nodiscard]] std::uint64_t corrupted_in(Slot lo, Slot hi) const {
    std::uint64_t count = 0;
    for (Slot t = std::max<Slot>(lo, 0); t < hi; ++t) count += bit(corrupt, t) ? 1 : 0;
    return count;
  }
};

/// The jam schedule with Floyd's draw over a horizon-sized bitset.
std::vector<Slot> eager_jam(const wu::mac::ImpairmentSpec& spec, Slot horizon,
                            const std::vector<Slot>* jam_override, wu::util::Rng rng) {
  std::vector<Slot> slots;
  if (jam_override != nullptr) {
    for (const Slot t : *jam_override) {
      if (t >= 0 && t < horizon) slots.push_back(t);
    }
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    return slots;
  }
  if (!spec.has_jam()) return slots;
  const std::uint64_t budget =
      std::min<std::uint64_t>(spec.jam_budget, static_cast<std::uint64_t>(horizon));
  switch (spec.jam_sched) {
    case wu::mac::JamSchedule::kFront:
      for (std::uint64_t i = 0; i < budget; ++i) slots.push_back(static_cast<Slot>(i));
      break;
    case wu::mac::JamSchedule::kSpread:
      for (std::uint64_t i = 0; i < budget; ++i) {
        slots.push_back(static_cast<Slot>((static_cast<std::uint64_t>(horizon) * i) / budget));
      }
      break;
    case wu::mac::JamSchedule::kRandom: {
      wu::util::DynamicBitset chosen(static_cast<std::size_t>(horizon));
      for (Slot j = horizon - static_cast<Slot>(budget); j < horizon; ++j) {
        const auto t = static_cast<Slot>(rng.uniform(static_cast<std::uint64_t>(j) + 1));
        const Slot pick = chosen.test(static_cast<std::size_t>(t)) ? j : t;
        chosen.set(static_cast<std::size_t>(pick));
        slots.push_back(pick);
      }
      std::sort(slots.begin(), slots.end());
      break;
    }
    case wu::mac::JamSchedule::kAdversarial:
      break;
  }
  return slots;
}

/// `byzantine` is the plan's station draw (unchanged by lazy realization).
EagerWords eager_reference(const wu::mac::ImpairmentSpec& spec, std::uint64_t seed,
                           Slot horizon, const std::vector<Slot>* jam_override,
                           const std::vector<wu::mac::StationId>& byzantine) {
  EagerWords out;
  const std::size_t n_words = word_count(horizon);
  const wu::util::Rng rng(wu::util::hash_words({seed, 0x494d50ULL}));
  if (spec.has_noise()) {
    out.noise.assign(n_words, 0);
    wu::util::Rng sub = rng.split(0x4e4f495345ULL);
    const double p = spec.noise_p;
    if (spec.noise == wu::mac::NoiseKind::kIid) {
      Slot t = geometric_gap(p, sub);
      while (t < horizon) {
        set_slot_bit(out.noise, t);
        t += 1 + geometric_gap(p, sub);
      }
    } else {
      const double switch_p = spec.noise_switch;
      const double enter_p = std::min(1.0, switch_p * p / (1.0 - p));
      bool noisy = sub.bernoulli(p);
      for (Slot t = 0; t < horizon; ++t) {
        if (noisy) {
          set_slot_bit(out.noise, t);
          if (sub.bernoulli(switch_p)) noisy = false;
        } else if (sub.bernoulli(enter_p)) {
          noisy = true;
        }
      }
    }
  }
  out.jam_slots = eager_jam(spec, horizon, jam_override, rng.split(0x4a414dULL));
  if (!out.jam_slots.empty() || !byzantine.empty()) {
    out.corrupt.assign(n_words, 0);
    for (const Slot t : out.jam_slots) set_slot_bit(out.corrupt, t);
    for (const wu::mac::StationId u : byzantine) {
      wu::util::Rng sub = rng.split(0x42595a00000000ULL ^ (std::uint64_t{u} + 1));
      for (std::size_t w = 0; w < n_words; ++w) out.corrupt[w] |= sub.next_u64();
    }
    const unsigned tail = static_cast<unsigned>(horizon % 64);
    if (tail != 0) out.corrupt.back() &= (std::uint64_t{1} << tail) - 1;
  }
  return out;
}

/// Reads words `order` of `plan` (in that order) and returns the first
/// read that disagrees with the reference, or -1.
std::int64_t first_word_mismatch(const wu::sim::ImpairmentPlan& plan, const EagerWords& ref,
                                 const std::vector<std::size_t>& order) {
  for (const std::size_t w : order) {
    if (plan.noise_word(w) != ref.noise_word(w) || plan.corrupt_word(w) != ref.corrupt_word(w)) {
      return static_cast<std::int64_t>(w);
    }
  }
  return -1;
}

std::vector<std::size_t> ascending(std::size_t from, std::size_t to) {
  std::vector<std::size_t> out(to - from);
  std::iota(out.begin(), out.end(), from);
  return out;
}

TEST(ImpairmentEngine, LazyWordsMatchEagerReference) {
  // Words are realized on first read, by resuming each clause's stream;
  // every read order must see exactly the words the eager compiler drew.
  struct Case {
    const char* spec;
    bool jam_override;
  };
  const std::vector<Case> cases = {
      {"noise:iid:0.05", false},
      {"noise:iid:0.3", false},
      {"noise:bursty:0.2:0.1", false},
      {"jam:budget:40:front", false},
      {"jam:budget:40:spread", false},
      {"jam:budget:40:random", false},
      {"jam:budget:4:adversarial", true},
      {"crash:0.25", false},
      {"byzantine:0.1", false},
      {"noise:iid:0.05+jam:budget:32:random+byzantine:0.1", false},
      {"noise:bursty:0.1:0.05+jam:budget:16:spread+crash:0.25:64+byzantine:0.2", false},
      {"noise:iid:0.2+jam:budget:4:adversarial+crash:0.1", true},
  };
  const std::vector<Slot> horizons = {1, 63, 64, 65, 511, 512, 513, 4101, 131077};
  const std::vector<Slot> override_slots = {5, 64, 0, 511, 512, 4100, 131076, 131077, -3, 5};
  const auto stations = station_range(64);
  wu::util::Rng draw(2024);
  for (const Case& c : cases) {
    const auto spec = wu::mac::ImpairmentSpec::parse(c.spec);
    const std::vector<Slot>* jam_override = c.jam_override ? &override_slots : nullptr;
    for (const Slot horizon : horizons) {
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(horizon);
      const auto compile = [&] {
        return wu::sim::compile_impairment(spec, seed, horizon, &stations, jam_override);
      };
      const wu::sim::ImpairmentPlan fresh = compile();
      const EagerWords ref = eager_reference(spec, seed, horizon, jam_override, fresh.byzantine);
      const std::size_t n_words = word_count(horizon);
      const std::string where = std::string(c.spec) + " @ " + std::to_string(horizon);
      EXPECT_FALSE(fresh.clean()) << where;
      EXPECT_EQ(fresh.jam_slots, ref.jam_slots) << where;

      // Ascending, and past the horizon (clean there).
      EXPECT_EQ(first_word_mismatch(compile(), ref, ascending(0, n_words + 3)), -1)
          << where << " ascending";
      // Last word first, then a word past the horizon, then the rest.
      {
        std::vector<std::size_t> order = {n_words - 1, n_words + 40};
        const auto rest = ascending(0, n_words);
        order.insert(order.end(), rest.begin(), rest.end());
        EXPECT_EQ(first_word_mismatch(compile(), ref, order), -1) << where << " last first";
      }
      // Random words, repeats included.
      {
        std::vector<std::size_t> order(2 * n_words + 8);
        for (std::size_t& w : order) w = static_cast<std::size_t>(draw.uniform(n_words + 2));
        EXPECT_EQ(first_word_mismatch(compile(), ref, order), -1) << where << " random";
      }
      // Slot by slot through effective_outcome, as the interpreter reads.
      {
        const wu::sim::ImpairmentPlan plan = compile();
        Slot bad = -2;
        for (Slot t = -1; t < horizon + 70 && bad == -2; ++t) {
          for (std::size_t transmitters = 0; transmitters <= 2; ++transmitters) {
            if (plan.effective_outcome(t, transmitters) != ref.outcome(t, transmitters)) bad = t;
          }
        }
        EXPECT_EQ(bad, -2) << where << " slot by slot";
      }
      // corrupted_in over random ranges, as the C-lane and dynamic engines
      // count side lanes and idle spans.
      {
        const wu::sim::ImpairmentPlan plan = compile();
        for (int r = 0; r < 24; ++r) {
          const auto span = static_cast<std::uint64_t>(horizon) + 80;
          const auto lo = static_cast<Slot>(draw.uniform(span)) - 8;
          const auto hi = lo + static_cast<Slot>(draw.uniform(r % 4 == 0 ? 40 : 3000));
          EXPECT_EQ(plan.corrupted_in(lo, hi), ref.corrupted_in(lo, hi))
              << where << " [" << lo << ", " << hi << ")";
        }
      }
      // A copy taken mid-realization resumes the same streams.
      {
        const wu::sim::ImpairmentPlan plan = compile();
        const std::size_t mid = static_cast<std::size_t>(draw.uniform(n_words));
        EXPECT_EQ(first_word_mismatch(plan, ref, {mid}), -1) << where << " before copy";
        const wu::sim::ImpairmentPlan copy = plan;
        EXPECT_EQ(first_word_mismatch(copy, ref, ascending(0, n_words + 1)), -1)
            << where << " copy";
        EXPECT_EQ(first_word_mismatch(plan, ref, ascending(mid, n_words + 1)), -1)
            << where << " original after copy";
      }
    }
  }
}

}  // namespace
