#include "sim/adversary.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "sim/impairment_engine.hpp"
#include "sim/run.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace wakeup::sim {

SwapAdversaryResult run_swap_adversary(const proto::Protocol& protocol, std::uint32_t n,
                                       std::uint32_t k, mac::Slot horizon) {
  SwapAdversaryResult result;
  if (k == 0 || k > n) return result;
  result.bound = static_cast<std::int64_t>(util::theorem21_bound(n, k));
  const std::uint32_t max_swaps = std::min(k, n - k);

  if (horizon <= 0) {
    horizon = auto_slot_budget(n, k) + static_cast<mac::Slot>(n);
  }

  // All n stations woken simultaneously at 0; the adversary chooses which k
  // of them "really" are awake, and revises that choice adaptively.
  std::vector<std::unique_ptr<proto::StationRuntime>> runtimes;
  runtimes.reserve(n);
  for (std::uint32_t u = 0; u < n; ++u) runtimes.push_back(protocol.make_runtime(u, 0));

  util::DynamicBitset in_x(n);
  for (std::uint32_t u = 0; u < k; ++u) in_x.set(u);
  std::uint32_t next_fresh = k;  // stations k..n-1 are the fresh pool

  for (mac::Slot t = 0; t < horizon; ++t) {
    // T_t ∩ X, computed while stepping every runtime (all must advance to
    // keep their sequential-contract state).
    std::uint32_t hits = 0;
    std::uint32_t selected = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
      const bool tx = runtimes[u]->transmits(t);
      if (tx && in_x.test(u)) {
        ++hits;
        selected = u;
      }
    }
    if (hits == 1) {
      if (result.swaps >= max_swaps || next_fresh >= n) {
        // Adversary out of moves: the protocol wins this round.
        result.rounds_forced = t + 1;
        return result;
      }
      in_x.reset(selected);
      in_x.set(next_fresh++);
      ++result.swaps;
    }
  }
  result.rounds_forced = horizon;
  result.protocol_stalled = true;
  return result;
}

PatternSearchResult search_worst_pattern(
    const std::function<proto::ProtocolPtr(std::uint64_t seed)>& factory, std::uint32_t n,
    std::uint32_t k, std::uint32_t restarts, std::uint32_t steps_per_restart,
    std::uint64_t seed, const SimConfig& config) {
  PatternSearchResult best;
  std::int64_t best_rounds = -1;

  auto evaluate = [&](const mac::WakePattern& pattern,
                      std::uint64_t trial_seed) -> SimResult {
    const proto::ProtocolPtr protocol = factory(trial_seed);
    return Run({.protocol = protocol.get(), .pattern = &pattern, .sim = config}).sim;
  };

  for (std::uint32_t r = 0; r < restarts; ++r) {
    util::Rng rng(util::hash_words({seed, 0x414456ULL /* "ADV" */, r}));
    // Start from a random structured pattern (cycled through the kinds).
    const auto& kinds = mac::patterns::all_kinds();
    mac::WakePattern current =
        mac::patterns::generate(kinds[r % kinds.size()], n, k, 0, rng);
    SimResult current_result = evaluate(current, rng.seed());
    ++best.evaluations;

    for (std::uint32_t step = 0; step < steps_per_restart; ++step) {
      // Perturb: move one arrival's wake time (keeping the first at s=0) or
      // swap one station identity.
      std::vector<mac::Arrival> arrivals = current.arrivals();
      const std::size_t idx = static_cast<std::size_t>(rng.uniform(arrivals.size()));
      if (rng.bernoulli(0.5)) {
        const auto delta = rng.uniform_range(-8, 32);
        arrivals[idx].wake = std::max<mac::Slot>(0, arrivals[idx].wake + delta);
      } else {
        const auto candidate = static_cast<mac::StationId>(rng.uniform(n));
        bool used = false;
        for (const auto& a : arrivals) used = used || a.station == candidate;
        if (!used) arrivals[idx].station = candidate;
      }
      // Re-anchor the earliest wake to 0 so costs stay comparable.
      mac::Slot min_wake = arrivals.front().wake;
      for (const auto& a : arrivals) min_wake = std::min(min_wake, a.wake);
      for (auto& a : arrivals) a.wake -= min_wake;

      mac::WakePattern candidate_pattern(n, std::move(arrivals));
      const SimResult candidate_result = evaluate(candidate_pattern, rng.seed());
      ++best.evaluations;
      const std::int64_t cur = current_result.success ? current_result.rounds
                                                      : std::numeric_limits<std::int64_t>::max();
      const std::int64_t cand = candidate_result.success
                                    ? candidate_result.rounds
                                    : std::numeric_limits<std::int64_t>::max();
      if (cand >= cur) {  // accept ties to keep drifting
        current = std::move(candidate_pattern);
        current_result = candidate_result;
      }
    }

    const std::int64_t rounds = current_result.success
                                    ? current_result.rounds
                                    : std::numeric_limits<std::int64_t>::max();
    if (rounds > best_rounds) {
      best_rounds = rounds;
      best.worst = current;
      best.worst_result = current_result;
    }
  }
  return best;
}

JamSearchResult search_worst_jam(const proto::Protocol& protocol,
                                 const mac::WakePattern& pattern,
                                 const mac::ImpairmentSpec& spec, std::uint32_t restarts,
                                 std::uint32_t steps_per_restart, std::uint64_t seed,
                                 const SimConfig& config) {
  JamSearchResult best;
  if (pattern.empty() || spec.jam_budget == 0) return best;

  mac::Slot budget = config.max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());
  const mac::Slot horizon = pattern.first_wake() + budget;
  const auto jam = static_cast<std::size_t>(
      std::min<std::uint64_t>(spec.jam_budget, static_cast<std::uint64_t>(horizon)));

  // Candidate placements are realized through the plan compiler itself, so
  // the search evaluates exactly what the trials will face.  One fixed plan
  // seed for every evaluation keeps the spec's noise background constant
  // (the clause substreams are independent of the jam override).
  std::int64_t best_rounds = -1;
  const auto objective = [](const SimResult& r) {
    return r.success ? r.rounds : std::numeric_limits<std::int64_t>::max();
  };
  auto evaluate = [&](const std::vector<mac::Slot>& slots) -> SimResult {
    const ImpairmentPlan plan = compile_impairment(spec, seed, horizon, nullptr, &slots);
    SimConfig cfg = config;
    cfg.impairment = &plan;
    ++best.evaluations;
    return dispatch_wakeup(protocol, pattern, cfg);
  };

  // Everything jammed: nothing to place, the protocol can never win.
  if (static_cast<mac::Slot>(jam) >= horizon) {
    best.slots.resize(jam);
    for (std::size_t i = 0; i < jam; ++i) best.slots[i] = static_cast<mac::Slot>(i);
    best.worst_result = evaluate(best.slots);
    return best;
  }

  for (std::uint32_t r = 0; r < restarts; ++r) {
    util::Rng rng(util::hash_words({seed, 0x4a414d53ULL /* "JAMS" */, r}));
    // Restarts cycle through the canonical schedules: front-load, spread,
    // then random placements.
    std::vector<mac::Slot> current(jam);
    switch (r % 3) {
      case 0:
        for (std::size_t i = 0; i < jam; ++i) current[i] = static_cast<mac::Slot>(i);
        break;
      case 1:
        for (std::size_t i = 0; i < jam; ++i) {
          current[i] = horizon * static_cast<mac::Slot>(i) / static_cast<mac::Slot>(jam);
        }
        break;
      default: {
        // Floyd's distinct sampling of `jam` slots from [0, horizon).
        std::unordered_set<mac::Slot> taken;
        taken.reserve(jam);
        current.clear();
        for (mac::Slot t = horizon - static_cast<mac::Slot>(jam); t < horizon; ++t) {
          const auto pick =
              static_cast<mac::Slot>(rng.uniform(static_cast<std::uint64_t>(t) + 1));
          const auto chosen = taken.contains(pick) ? t : pick;
          taken.insert(chosen);
          current.push_back(chosen);
        }
        std::sort(current.begin(), current.end());
        break;
      }
    }
    SimResult current_result = evaluate(current);

    for (std::uint32_t step = 0; step < steps_per_restart; ++step) {
      // Perturb: resample one jam slot uniformly, or shift it locally.
      std::vector<mac::Slot> candidate = current;
      const auto idx = static_cast<std::size_t>(rng.uniform(candidate.size()));
      mac::Slot moved;
      if (rng.bernoulli(0.5)) {
        moved = static_cast<mac::Slot>(rng.uniform(static_cast<std::uint64_t>(horizon)));
      } else {
        const std::int64_t delta = rng.uniform_range(-32, 32);
        moved = std::clamp<mac::Slot>(candidate[idx] + delta, 0, horizon - 1);
      }
      bool duplicate = false;
      for (std::size_t j = 0; j < candidate.size(); ++j) {
        duplicate = duplicate || (j != idx && candidate[j] == moved);
      }
      if (duplicate) continue;  // placements stay distinct; try the next step
      candidate[idx] = moved;
      std::sort(candidate.begin(), candidate.end());

      const SimResult candidate_result = evaluate(candidate);
      if (objective(candidate_result) >= objective(current_result)) {  // ties drift
        current = std::move(candidate);
        current_result = candidate_result;
      }
    }

    if (objective(current_result) > best_rounds) {
      best_rounds = objective(current_result);
      best.slots = std::move(current);
      best.worst_result = current_result;
    }
  }
  return best;
}

}  // namespace wakeup::sim
