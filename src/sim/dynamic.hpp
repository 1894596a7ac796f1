#pragma once

/// \file dynamic.hpp
/// Dynamic-traffic execution: per-station FIFO queues under sustained load.
///
/// Where `simulator.hpp` runs one-shot wake-up (each station contends once),
/// the dynamic layer serves a `mac::DynamicScenario`: every station owns a
/// FIFO packet queue fed by an arrival stream, the head-of-line packet
/// contends via the protocol until delivered, and the next packet then
/// starts a fresh contention at the following slot.  Every slot in
/// [0, horizon) resolves exactly once — silence, collision, or delivery —
/// so  silences + collisions + delivered = horizon  and
/// arrivals = delivered + backlog  hold as invariants.
///
/// Both engines read each station's arrivals, its FIFO queue, straight from
/// the scenario's station-major layout (`DynamicScenario::arrivals_of`).
///
/// Two engines with bit-identical results (tests/test_dynamic_engine.cpp):
///
///  - `run_dynamic_interpreter` — the event-driven station loop; works for
///    every protocol, including the adaptive re-contenders
///    (`proto::DynamicStation`).  It jumps from event to event: a slot is
///    visited only when some station's `next_event` or an arrival into an
///    empty queue falls on it, and the skipped slots are charged in bulk.
///    A success is told to the stations asked at its slot; the loop counts
///    successes, and a backlogged station that hears others
///    (`hears_others`) gets the number it skipped through `heard_others`
///    at its next visit, before `transmits`.  Stations keeping the default
///    `next_event` (every oblivious protocol, through its per-packet
///    runtimes) are visited on every backlogged slot.  Per trial, the
///    visited slots and the successes told through `heard_others` go to the
///    `dynamic.visits` and `dynamic.heard` counters.  The test file keeps a
///    per-slot loop, with per-slot copies of the re-contenders, as the
///    reference the skipping is checked against.
///  - `run_dynamic_batch` — the word-parallel engine for oblivious
///    protocols: a thin driver over the word-matrix tile core of
///    sim/batch_engine.hpp, which static and C-lane runs share.  Each
///    scenario station owns one row of the station-major word matrix,
///    holding its head-of-line packet's transmit bits; on a delivery the
///    core refetches the winner's row from its next head-of-line start —
///    a queued packet at the following slot, a later arrival at its slot,
///    nothing once the queue drains — and re-resolves the rest of the
///    tile; a tile with more refills than words restarts the tile ramp.
///    The queues, the latencies, the fault rows and the listen spans stay
///    in `run_dynamic_batch` itself.
///
/// Contention start of a packet: max(arrival slot, previous delivery + 1).
/// Queue latency of a delivered packet: delivery - arrival + 1 (a packet
/// delivered in its arrival slot has latency 1).

#include <cstdint>
#include <vector>

#include "mac/arrival_process.hpp"
#include "sim/simulator.hpp"

namespace wakeup::sim {

/// Outcome of one dynamic trial.
struct DynamicResult {
  mac::Slot horizon = 0;
  std::uint64_t arrivals = 0;    ///< packets that arrived in [0, horizon)
  std::uint64_t delivered = 0;   ///< head-of-line packets delivered
  std::uint64_t backlog = 0;     ///< arrivals - delivered (queued at horizon)
  std::uint64_t silences = 0;
  std::uint64_t collisions = 0;

  /// Scenario stations (ascending) and their delivered counts, parallel.
  std::vector<mac::StationId> stations;
  std::vector<std::uint64_t> delivered_per_station;

  /// Queue latency (delivery - arrival + 1) per delivered packet, in
  /// delivery order — identical across engines, not just as a multiset.
  std::vector<double> latency;

  /// Per-station energy, parallel to `stations` (empty when the run's
  /// EnergyModel is kOff).  kListenAll charges every slot of the horizon
  /// (the receiver stays on); kListenUntilWoken charges only backlogged
  /// slots.  Crashed stations stop paying at their cutoff; byzantine
  /// stations never followed the protocol and pay 0.  `station_transmits`
  /// is the transmit-slot component — counted at transmit events by the
  /// interpreter, by lazy row popcounts in the batch engine (independent
  /// derivations, and the defaulted operator== below makes engine parity
  /// cover them).  Both engines close the listen component over spans.
  std::vector<std::uint64_t> station_energy;
  std::vector<std::uint64_t> station_transmits;

  /// Sustained throughput: delivered packets per slot.
  [[nodiscard]] double throughput() const noexcept {
    return horizon > 0 ? static_cast<double>(delivered) / static_cast<double>(horizon) : 0.0;
  }

  /// Jain's fairness index (sum x)^2 / (m * sum x^2) over the per-station
  /// delivered counts; 1 when every station delivered equally, 1/m when one
  /// station took everything.  1.0 for empty/all-zero scenarios.
  [[nodiscard]] double jain() const noexcept;

  [[nodiscard]] bool operator==(const DynamicResult&) const = default;
};

/// Event-driven dynamic loop — works for every protocol.  Protocols
/// overriding `make_dynamic_station` carry state across packets; all others
/// re-contend each packet on a fresh `make_runtime(u, start)`.
///
/// `plan` (nullable, not owned) applies one trial's channel impairments.
/// The dynamic layer is where the station fault models live: a *crashed*
/// station follows its protocol until its cutoff slot and then falls
/// permanently silent (queued packets strand in the backlog); a *byzantine*
/// station never follows the protocol at all — its adversarial
/// transmissions are pre-folded into the plan's corrupt words and its own
/// packets are never delivered.  Noise and jam act exactly as in the
/// one-shot engines.  The slot invariants survive every impairment:
/// silences + collisions + delivered == horizon, arrivals == delivered +
/// backlog.
[[nodiscard]] DynamicResult run_dynamic_interpreter(const proto::Protocol& protocol,
                                                    const mac::DynamicScenario& scenario,
                                                    const ImpairmentPlan* plan = nullptr,
                                                    EnergyModel energy = EnergyModel::kOff);

/// Can `run_dynamic_batch` execute this protocol?  Requires an oblivious
/// single-lane schedule (dynamic traffic is single-channel).
[[nodiscard]] bool dynamic_batch_supports(const proto::Protocol& protocol);

/// Word-parallel dynamic engine (the tile core's refetch rule).
/// Precondition: `dynamic_batch_supports(protocol)`; throws
/// std::invalid_argument otherwise.  Bit-identical to the interpreter,
/// impaired or clean: noise/jam words fold into the tile reductions, crash
/// cutoffs mask row bits, byzantine rows stay zero.
[[nodiscard]] DynamicResult run_dynamic_batch(const proto::Protocol& protocol,
                                              const mac::DynamicScenario& scenario,
                                              const ImpairmentPlan* plan = nullptr,
                                              EnergyModel energy = EnergyModel::kOff);

/// Engine selection, mirroring `dispatch_wakeup`: kAuto batches oblivious
/// protocols and interprets the rest; kBatch throws where
/// `dynamic_batch_supports` says no.
[[nodiscard]] DynamicResult dispatch_dynamic(const proto::Protocol& protocol,
                                             const mac::DynamicScenario& scenario,
                                             Engine engine = Engine::kAuto,
                                             const ImpairmentPlan* plan = nullptr,
                                             EnergyModel energy = EnergyModel::kOff);

}  // namespace wakeup::sim
