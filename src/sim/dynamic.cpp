#include "sim/dynamic.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>

#include "mac/channel.hpp"
#include "obs/metrics.hpp"
#include "sim/impairment_engine.hpp"

namespace wakeup::sim {

double DynamicResult::jain() const noexcept {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::uint64_t d : delivered_per_station) {
    const auto x = static_cast<double>(d);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(delivered_per_station.size()) * sum_sq);
}

namespace {

/// Default cross-packet adapter: a fresh one-shot runtime per packet.
/// Exactly right for oblivious protocols (their schedule is a pure function
/// of (station, start)) and for memoryless randomized ones.
class PerPacketStation final : public proto::DynamicStation {
 public:
  PerPacketStation(const proto::Protocol& protocol, mac::StationId id)
      : protocol_(protocol), id_(id) {}

  void packet_start(mac::Slot start) override { runtime_ = protocol_.make_runtime(id_, start); }

  [[nodiscard]] bool transmits(mac::Slot t) override { return runtime_->transmits(t); }

  void feedback(mac::Slot t, mac::ChannelFeedback fb, bool delivered) override {
    (void)delivered;
    runtime_->feedback(t, fb);
  }

 private:
  const proto::Protocol& protocol_;
  mac::StationId id_;
  std::unique_ptr<proto::StationRuntime> runtime_;
};

constexpr mac::Slot kIdle = -1;
constexpr mac::Slot kNever = std::numeric_limits<mac::Slot>::max();

/// One scenario station in the event loop.
struct Active {
  std::span<const mac::Slot> arr;  ///< this station's arrival slots
  std::size_t head = 0;            ///< delivered packets
  /// First slot at which the station no longer follows the protocol: the
  /// horizon, an earlier crash cutoff, or 0 for a byzantine station.
  mac::Slot end = 0;
  /// Start of the current backlogged span; kIdle while the queue is empty.
  mac::Slot busy_since = kIdle;
  /// Does the station hear others' successes (`hears_others`)?
  bool hears = false;
  /// The loop's success count when the station last heard the channel:
  /// the successes since then are the ones it skipped.
  std::uint64_t heard = 0;
  std::unique_ptr<proto::DynamicStation> dyn;

  /// The slot to visit for an event at `event`: kNever from `end` on.
  [[nodiscard]] mac::Slot visit(mac::Slot event) const noexcept {
    return event < end ? event : kNever;
  }
  /// The next visit of a backlogged station, from slot t on.
  [[nodiscard]] mac::Slot next_visit(mac::Slot t) const { return visit(dyn->next_event(t, end)); }
  /// While idle, the next visit is the arrival that refills the queue.
  [[nodiscard]] mac::Slot next_arrival() const noexcept {
    return head < arr.size() ? visit(arr[head]) : kNever;
  }
};

}  // namespace

DynamicResult run_dynamic_interpreter(const proto::Protocol& protocol,
                                      const mac::DynamicScenario& scenario,
                                      const ImpairmentPlan* plan, EnergyModel energy) {
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

  const mac::Slot horizon = scenario.horizon();
  const std::size_t m = result.stations.size();
  std::vector<Active> stations(m);
  // next[i]: the next slot at which station i must be visited — its own
  // next_event, or the arrival into its empty queue.
  std::vector<mac::Slot> next(m);
  for (std::size_t i = 0; i < m; ++i) {
    Active& st = stations[i];
    const mac::StationId id = result.stations[i];
    st.arr = scenario.arrivals_of(i);
    st.end = horizon;
    if (plan != nullptr) {
      // Faulty stations still accumulate arrivals — their packets strand in
      // the backlog — but no longer drive their protocol state.
      const mac::Slot cutoff = plan->crash_cutoff(id);
      if (cutoff >= 0) st.end = std::min(st.end, cutoff);
      if (plan->is_byzantine(id)) st.end = 0;
    }
    st.dyn = protocol.make_dynamic_station(id);
    if (st.dyn == nullptr) st.dyn = std::make_unique<PerPacketStation>(protocol, id);
    st.hears = st.dyn->hears_others();
    next[i] = st.next_arrival();
  }

  std::uint64_t silences = 0, collisions = 0;
  // Slots between visits have no transmitter: silences, or collisions
  // where the plan corrupts them.
  const auto charge_quiet = [&](mac::Slot from, mac::Slot to) {
    const std::uint64_t corrupt = plan != nullptr ? plan->corrupted_in(from, to) : 0;
    collisions += corrupt;
    silences += static_cast<std::uint64_t>(to - from) - corrupt;
  };
  mac::Slot quiet_from = 0;
  // Per visited slot: the stations due, then those asked to transmit.
  std::vector<std::size_t> due(m), asked(m);
  // Successes resolved so far; per trial, the slots visited and the
  // skipped successes told through heard_others (obs side-state).
  std::uint64_t successes = 0, visits = 0, heard_total = 0;

  while (true) {
    mac::Slot t = kNever;
    for (const mac::Slot s : next) t = std::min(t, s);
    if (t >= horizon) break;
    charge_quiet(quiet_from, t);
    quiet_from = t + 1;
    ++visits;

    std::size_t n_due = 0;
    for (std::size_t i = 0; i < m; ++i) {
      due[n_due] = i;
      n_due += next[i] == t ? 1 : 0;
    }

    // An arrival into an empty queue starts its packet, which may transmit
    // at once; the other due stations are mid-contention, and first hear
    // the successes they skipped.
    std::size_t n_asked = 0, transmitters = 0, sender = 0;
    for (std::size_t d = 0; d < n_due; ++d) {
      const std::size_t i = due[d];
      Active& st = stations[i];
      if (st.busy_since == kIdle) {
        st.busy_since = t;
        st.heard = successes;
        st.dyn->packet_start(t);
        next[i] = st.next_visit(t);
        if (next[i] != t) continue;
      }
      if (st.hears && st.heard != successes) {
        st.dyn->heard_others(successes - st.heard);
        heard_total += successes - st.heard;
        st.heard = successes;
      }
      asked[n_asked++] = i;
      if (st.dyn->transmits(t)) {
        ++transmitters;
        sender = i;
        if (energy != EnergyModel::kOff) ++result.station_transmits[i];
      }
    }

    const mac::SlotOutcome outcome = plan != nullptr
                                         ? plan->effective_outcome(t, transmitters)
                                         : mac::resolve_slot(transmitters);
    if (outcome != mac::SlotOutcome::kSuccess) {
      ++(outcome == mac::SlotOutcome::kSilence ? silences : collisions);
      for (std::size_t a = 0; a < n_asked; ++a) {
        Active& st = stations[asked[a]];
        st.dyn->feedback(t, mac::ChannelFeedback::kNothing, false);
        next[asked[a]] = st.next_visit(t + 1);
      }
      continue;
    }

    // A success reaches the stations asked at t; every other backlogged
    // station skipped it, and hears it at its next visit.
    ++successes;
    for (std::size_t a = 0; a < n_asked; ++a) {
      const std::size_t i = asked[a];
      Active& asked_st = stations[i];
      asked_st.heard = successes;
      asked_st.dyn->feedback(t, mac::ChannelFeedback::kSuccess, i == sender);
      if (i != sender) next[i] = asked_st.next_visit(t + 1);
    }

    Active& st = stations[sender];
    result.latency.push_back(static_cast<double>(t - st.arr[st.head] + 1));
    ++result.delivered_per_station[sender];
    ++st.head;
    if (energy == EnergyModel::kListenUntilWoken) {
      result.station_energy[sender] += static_cast<std::uint64_t>(t - st.busy_since + 1);
    }
    if (st.head < st.arr.size() && st.arr[st.head] <= t) {
      // The next head-of-line packet is already queued: it re-contends
      // from the following slot.
      st.busy_since = t + 1;
      next[sender] = kNever;
      if (t + 1 < st.end) {
        st.dyn->packet_start(t + 1);
        next[sender] = st.next_visit(t + 1);
      }
    } else {
      st.busy_since = kIdle;
      next[sender] = st.next_arrival();
    }
  }
  charge_quiet(quiet_from, horizon);
  if (obs::active()) {
    static const auto c_visits = obs::Counter::get("dynamic.visits");
    static const auto c_heard = obs::Counter::get("dynamic.heard");
    c_visits.add(visits);
    c_heard.add(heard_total);
  }

  if (energy != EnergyModel::kOff) {
    // Listen components over spans.  listen:all keeps every following
    // receiver on until its end; listen:until_woken powers it only while
    // the queue is backlogged — delivered packets paid their spans above,
    // a still-backlogged head pays from its span's start to its end.
    for (std::size_t i = 0; i < m; ++i) {
      const Active& st = stations[i];
      if (energy == EnergyModel::kListenAll) {
        result.station_energy[i] = static_cast<std::uint64_t>(st.end);
      } else if (st.busy_since != kIdle && st.busy_since < st.end) {
        result.station_energy[i] += static_cast<std::uint64_t>(st.end - st.busy_since);
      }
    }
  }

  result.silences = silences;
  result.collisions = collisions;
  result.delivered = static_cast<std::uint64_t>(result.latency.size());
  result.backlog = result.arrivals - result.delivered;
  return result;
}

bool dynamic_batch_supports(const proto::Protocol& protocol) {
  const proto::ObliviousSchedule* schedule = protocol.oblivious_schedule();
  return schedule != nullptr && schedule->schedule_channels() == 1;
}

DynamicResult dispatch_dynamic(const proto::Protocol& protocol,
                               const mac::DynamicScenario& scenario, Engine engine,
                               const ImpairmentPlan* plan, EnergyModel energy) {
  switch (engine) {
    case Engine::kAuto:
      return dynamic_batch_supports(protocol)
                 ? run_dynamic_batch(protocol, scenario, plan, energy)
                 : run_dynamic_interpreter(protocol, scenario, plan, energy);
    case Engine::kInterpreter:
      return run_dynamic_interpreter(protocol, scenario, plan, energy);
    case Engine::kBatch:
      return run_dynamic_batch(protocol, scenario, plan, energy);
  }
  throw std::invalid_argument("dispatch_dynamic: unknown engine");
}

}  // namespace wakeup::sim
