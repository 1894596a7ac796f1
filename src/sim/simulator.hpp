#pragma once

/// \file simulator.hpp
/// Discrete-event execution of a protocol against a wake pattern on the
/// multiple access channel.
///
/// Slots tick from s (the first wake).  At each slot every awake station's
/// runtime is asked whether it transmits; the channel resolves the slot and
/// feedback is delivered.  The run ends at the first successful (solo)
/// transmission — the wake-up event — or, in full-resolution mode
/// (Komlós–Greenberg extension), when every awake station has transmitted
/// successfully once.
///
/// `dispatch_wakeup` is the engine-selection layer under the `sim::Run`
/// facade (sim/run.hpp): it routes a single-channel run to one of two
/// back-ends with identical semantics — the universal slot-by-slot
/// interpreter (sim/interpreter.hpp) or the word-parallel batch engine for
/// oblivious protocols (sim/batch_engine.hpp) — per SimConfig::engine.

#include <optional>
#include <string>
#include <vector>

#include "mac/channel.hpp"
#include "mac/trace.hpp"
#include "mac/wake_pattern.hpp"
#include "protocols/protocol.hpp"

namespace wakeup::sim {

struct ImpairmentPlan;  // sim/impairment_engine.hpp

/// Which back-end executes the run.
enum class Engine : std::uint8_t {
  /// Batch engine when the protocol is oblivious and no trace is recorded;
  /// interpreter otherwise.  The default — sweeps get the fast path free.
  kAuto,
  /// Force the slot-by-slot interpreter (reference semantics, any protocol).
  kInterpreter,
  /// Force the word-parallel batch engine; throws std::invalid_argument if
  /// the protocol is not oblivious or a trace is requested.
  kBatch,
};

/// Channel-energy cost model (De Marco–Kowalski–Stachowiak: energy = the
/// number of slots a station actually transmits or listens).  A slot spent
/// transmitting and a slot spent listening each cost 1; the models differ
/// in how long a station keeps its receiver on:
///   kListenAll        — every awake slot until the run ends.
///   kListenUntilWoken — every awake slot until the station itself is done
///                       (its full-resolution departure); identical to
///                       kListenAll in plain wake-up mode, where the first
///                       success ends the run for everyone.  For dynamic
///                       traffic, stations pay only while backlogged.
/// Energy lives in the sim layer (not obs/), so results — including the
/// energy block in sweep reports — are byte-identical whether or not
/// WAKEUP_OBS metrics are compiled or enabled.
enum class EnergyModel : std::uint8_t { kOff, kListenAll, kListenUntilWoken };

/// CLI spellings: "off", "listen:all", "listen:until_woken" (the short
/// aliases "all" / "until_woken" parse too).
[[nodiscard]] std::string energy_model_name(EnergyModel model);
[[nodiscard]] EnergyModel parse_energy_model(const std::string& label);

struct SimConfig {
  /// Hard slot budget counted from s; <= 0 selects an automatic generous
  /// bound (a multiple of the Scenario C theory bound plus n).
  mac::Slot max_slots = 0;
  mac::FeedbackModel feedback = mac::FeedbackModel::kNone;
  Engine engine = Engine::kAuto;
  bool record_trace = false;
  bool record_transmitters = false;  ///< include per-slot station lists in the trace
  /// Extension: run until every awake station has had a solo transmission
  /// (stations leave the channel after succeeding).
  bool full_resolution = false;
  /// One trial's channel impairments (noise/jam words, faults), or
  /// nullptr for the clean channel.  Not owned; the caller keeps the plan
  /// alive for the run (sim/run.cpp compiles one per trial).  The plan
  /// realizes its words as the engine reads them, so one plan serves one
  /// run at a time.  Every engine folds the same plan, so interpreter ≡
  /// batch holds under impairment exactly as it does clean.
  const ImpairmentPlan* impairment = nullptr;
  /// Per-station energy accounting (kOff skips it entirely).  The energy
  /// model is deliberately NOT part of the sweep cell identity: it changes
  /// only what is *measured*, never the simulated bytes, so historical
  /// seeds and tags stay stable.
  EnergyModel energy = EnergyModel::kOff;
};

struct SimResult {
  bool success = false;        ///< wake-up achieved within the budget
  mac::Slot s = 0;             ///< first wake slot
  mac::Slot success_slot = -1; ///< first slot with a solo transmission
  std::int64_t rounds = -1;    ///< success_slot - s (the paper's cost measure)
  mac::StationId winner = 0;   ///< the isolated station
  std::uint64_t silences = 0;
  std::uint64_t collisions = 0;
  std::uint64_t successes = 0; ///< > 1 only in full-resolution mode

  /// Full-resolution extension: slot by which all stations succeeded and
  /// rounds from s (-1 when not requested / not reached).
  mac::Slot completion_slot = -1;
  std::int64_t completion_rounds = -1;
  bool completed = false;

  /// Per-station energy (SimConfig::energy != kOff; empty otherwise), in
  /// pattern arrival order: station_energy[i] = slots the i-th waking
  /// station spent transmitting or listening under the selected model, and
  /// station_transmits[i] its transmit-slot component.  The interpreter
  /// counts both in-run from its `transmits(t)` calls; the batch engine
  /// counts transmits with masked popcounts over the schedule rows its
  /// tile loop already fetched (each row masked to the station's
  /// [wake, departure or last slot], plus what the kAuto warm-up prefix
  /// interpreted) — two independent derivations, tested bit-identical.
  /// Stations the run never woke (arrival after the end) hold 0.
  std::vector<std::uint64_t> station_energy;
  std::vector<std::uint64_t> station_transmits;

  std::optional<mac::ExecutionTrace> trace;
};

/// The automatic slot budget used when SimConfig::max_slots <= 0.
[[nodiscard]] mac::Slot auto_slot_budget(std::uint32_t n, std::size_t k);

/// Engine-selection layer: runs `protocol` against `pattern` on the engine
/// selected by `config.engine`.  Empty patterns yield a failed result with
/// rounds -1.  Most callers want the `sim::Run` facade (sim/run.hpp)
/// instead; this is the layer the facade and the engines share.
[[nodiscard]] SimResult dispatch_wakeup(const proto::Protocol& protocol,
                                        const mac::WakePattern& pattern,
                                        const SimConfig& config);

}  // namespace wakeup::sim
