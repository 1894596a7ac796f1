#include "sim/mc_simulator.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/impairment_engine.hpp"
#include "sim/mc_batch_engine.hpp"

namespace wakeup::sim {

McSimResult run_mc_interpreter(const proto::McProtocol& protocol,
                               const mac::WakePattern& pattern, mac::Slot max_slots,
                               const ImpairmentPlan* plan) {
  McSimResult result;
  if (pattern.empty()) return result;
  if (plan != nullptr && plan->clean()) plan = nullptr;

  struct Active {
    mac::StationId id;
    std::unique_ptr<proto::McStationRuntime> runtime;
    mac::ChannelAction last_action;
  };

  const auto& arrivals = pattern.arrivals();
  const mac::Slot s = pattern.first_wake();
  result.s = s;
  mac::Slot budget = max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());

  std::vector<Active> active;
  active.reserve(pattern.k());
  std::size_t next_arrival = 0;
  std::vector<mac::ChannelAction> actions;

  for (mac::Slot t = s; t - s < budget; ++t) {
    while (next_arrival < arrivals.size() && arrivals[next_arrival].wake == t) {
      const auto& a = arrivals[next_arrival];
      active.push_back({a.station, protocol.make_runtime(a.station, a.wake), {}});
      ++next_arrival;
    }

    actions.clear();
    for (Active& st : active) {
      st.last_action = st.runtime->act(t);
      actions.push_back(st.last_action);
    }

    auto slot = mac::resolve_multi_slot(protocol.channels(), actions);
    // Wideband impairment: a corrupted slot collides on every lane; a noisy
    // slot garbles every lane's solo into a collision (silence stays
    // silence).  Listeners hear only the effective outcomes.
    if (plan != nullptr && (plan->corrupted(t) || plan->noisy(t))) {
      const bool corrupt = plan->corrupted(t);
      for (auto& outcome : slot.outcomes) {
        if (corrupt || outcome == mac::SlotOutcome::kSuccess) {
          outcome = mac::SlotOutcome::kCollision;
        }
      }
      slot.success_channel = -1;
    }
    for (std::uint32_t c = 0; c < protocol.channels(); ++c) {
      if (slot.outcomes[c] == mac::SlotOutcome::kCollision) ++result.collisions;
      if (slot.outcomes[c] == mac::SlotOutcome::kSilence) ++result.silences;
      if (slot.outcomes[c] == mac::SlotOutcome::kSuccess) ++result.successes;
    }
    // Stations hear the outcome of the channel they acted on (no-CD model).
    for (Active& st : active) {
      const auto outcome = slot.outcomes[st.last_action.channel];
      st.runtime->feedback(t, mac::feedback_for(outcome, mac::FeedbackModel::kNone));
    }

    if (slot.any_success()) {
      result.success = true;
      result.success_slot = t;
      result.rounds = t - s;
      result.success_channel = slot.success_channel;
      for (const Active& st : active) {
        if (st.last_action.transmit &&
            st.last_action.channel == static_cast<std::uint32_t>(slot.success_channel)) {
          result.winner = st.id;
          break;
        }
      }
      return result;
    }
  }
  return result;
}

namespace {

/// Adapter fast path: a single-channel protocol embedded on channel 0 runs
/// through the single-channel engine stack (so oblivious baselines get the
/// word-parallel engines), and the C - 1 permanently silent side channels
/// are charged afterwards — one silence per channel per processed slot,
/// exactly what the slot loop would have counted.
McSimResult run_adapter_fast_path(const proto::McProtocol& protocol,
                                  const proto::Protocol& inner,
                                  const mac::WakePattern& pattern, const SimConfig& config) {
  McSimResult result;
  if (pattern.empty()) return result;

  // The whole config forwards; the fields the mc model cannot serve were
  // already rejected by dispatch_mc_wakeup.
  const SimResult sc = dispatch_wakeup(inner, pattern, config);
  result.s = sc.s;
  result.success = sc.success;
  result.success_slot = sc.success_slot;
  result.rounds = sc.rounds;
  result.success_channel = sc.success ? 0 : -1;
  result.winner = sc.winner;
  result.collisions = sc.collisions;
  result.successes = sc.successes;

  mac::Slot budget = config.max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());
  const mac::Slot processed = sc.success ? sc.rounds + 1 : budget;
  // Wideband impairment reaches the side channels too: a corrupted slot is
  // a collision on every idle lane, not a silence — exactly what the slot
  // loop counts.
  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;
  const std::uint64_t corrupted =
      plan != nullptr ? plan->corrupted_in(sc.s, sc.s + processed) : 0;
  const auto side = static_cast<std::uint64_t>(protocol.channels() - 1);
  result.silences =
      sc.silences + side * (static_cast<std::uint64_t>(processed) - corrupted);
  result.collisions += side * corrupted;
  return result;
}

}  // namespace

McSimResult dispatch_mc_wakeup(const proto::McProtocol& protocol,
                               const mac::WakePattern& pattern, const SimConfig& config) {
  if (config.record_trace || config.full_resolution ||
      config.feedback != mac::FeedbackModel::kNone) {
    throw std::invalid_argument(
        "multichannel runs support neither traces, full resolution, nor CD feedback");
  }
  switch (config.engine) {
    case Engine::kInterpreter:
      return run_mc_interpreter(protocol, pattern, config.max_slots, config.impairment);
    case Engine::kBatch:
      // throws if unsupported
      return run_mc_batch(protocol, pattern, config.max_slots, config.impairment);
    case Engine::kAuto:
      break;
  }
  if (const proto::Protocol* inner = protocol.single_channel()) {
    return run_adapter_fast_path(protocol, *inner, pattern, config);
  }
  if (mc_batch_supports(protocol)) {
    return run_mc_batch(protocol, pattern, config.max_slots, config.impairment);
  }
  return run_mc_interpreter(protocol, pattern, config.max_slots, config.impairment);
}

}  // namespace wakeup::sim
