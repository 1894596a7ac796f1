#pragma once

/// \file arrival_process.hpp
/// Dynamic traffic: seeded per-station packet arrival streams.
///
/// Everything in `wake_pattern.hpp` is one-shot — each station wakes once,
/// contends once, and leaves.  This file generalizes that to *streams* of
/// packets: an `ArrivalSpec` names a stochastic arrival process (Poisson,
/// bursty on/off, heavy-tailed Pareto, deterministic replay) and a
/// `DynamicScenario` holds the realized packet stream over a finite horizon.
/// A one-shot `WakePattern` is exactly the single-packet special case.
///
/// Determinism contract: `arrivals::generate(spec, n, k, horizon, rng)` is a
/// pure function of its arguments and the rng state — the sweep layer feeds
/// it the per-trial rng derived from (base_seed, cell_tag, trial), so any
/// dynamic cell reproduces bit-identically in isolation, like wake patterns.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mac/types.hpp"
#include "mac/wake_pattern.hpp"
#include "util/rng.hpp"

namespace wakeup::mac {

/// The arrival process families of the dynamic-traffic sweeps.
enum class ArrivalKind : std::uint8_t {
  kPoisson,  ///< memoryless: per-station Bernoulli(rate / k) each slot
  kBursty,   ///< 2-state on/off Markov modulation of a Poisson stream
  kPareto,   ///< heavy-tailed Pareto inter-arrival gaps (tail index alpha)
  kReplay,   ///< deterministic: an explicit packet list, nothing generated
};

/// Parsed form of one `--arrival=` axis entry.
///
/// Grammar (the canonical spellings `name()` round-trips through `parse()`):
///   poisson:RATE          e.g. poisson:0.1
///   bursty:RATE:SWITCH    e.g. bursty:0.5:0.05
///   pareto:ALPHA[:RATE]   e.g. pareto:1.5 (rate defaults to 0.1)
///   replay                (packet list supplied out of band)
///
/// RATE is the *offered load* in packets per slot summed over the k
/// participating stations; SWITCH is the per-slot on<->off transition
/// probability of the bursty modulator; ALPHA > 1 is the Pareto tail index
/// (smaller = heavier tail, burstier gaps).
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 0.1;    ///< offered load, packets/slot across all k stations
  double param = 0.0;   ///< bursty: switch probability; pareto: tail index

  [[nodiscard]] bool operator==(const ArrivalSpec&) const = default;

  /// Canonical spelling, used verbatim in cell tags (seed contract) and CLI
  /// output: "poisson:0.1", "bursty:0.5:0.05", "pareto:1.5:0.1", "replay".
  [[nodiscard]] std::string name() const;

  /// Inverse of name(); accepts the grammar above.  Throws
  /// std::invalid_argument with a friendly message on anything else.
  [[nodiscard]] static ArrivalSpec parse(const std::string& text);
};

class DynamicScenario;

namespace arrivals {

/// Realizes `spec` for `k` distinct stations drawn uniformly from [0, n)
/// over slots [0, horizon).  Each chosen station gets an independent rng
/// substream, so streams are reproducible per station.  kReplay cannot be
/// generated (construct a DynamicScenario directly) and throws.
[[nodiscard]] DynamicScenario generate(const ArrivalSpec& spec, std::uint32_t n, std::uint32_t k,
                                       Slot horizon, util::Rng& rng);

}  // namespace arrivals

/// A realized packet stream over slots [0, horizon), stored station-major
/// as both dynamic engines read it: the stations with packets, ascending,
/// and each one's arrival slots, ascending, in one flat array cut by
/// per-station offsets.  `arrivals::generate` draws each station's stream
/// straight into it; the packet-list constructor groups its input with one
/// sort; `packets()` is a slot-ordered copy.  A wake pattern is the
/// scenario where every station receives exactly one packet.
class DynamicScenario {
 public:
  DynamicScenario() = default;

  /// Validates: stations < n, slots in [0, horizon), horizon > 0, then
  /// groups the packets by station.  Unlike WakePattern, a station may
  /// appear many times — once per packet, several packets per slot too.
  DynamicScenario(std::uint32_t n, Slot horizon, std::vector<Arrival> packets);

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] Slot horizon() const noexcept { return horizon_; }
  /// Total packet count over the horizon.
  [[nodiscard]] std::size_t packets_total() const noexcept { return slots_.size(); }
  /// Distinct stations with at least one packet, ascending.
  [[nodiscard]] const std::vector<StationId>& stations() const noexcept { return stations_; }
  /// Arrival slots of stations()[i], ascending (repeated for packets
  /// sharing a slot).
  [[nodiscard]] std::span<const Slot> arrivals_of(std::size_t i) const noexcept {
    return {slots_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  /// A copy of every packet, sorted by arrival slot (ties by station id).
  [[nodiscard]] std::vector<Arrival> packets() const;

 private:
  friend DynamicScenario arrivals::generate(const ArrivalSpec& spec, std::uint32_t n,
                                            std::uint32_t k, Slot horizon, util::Rng& rng);

  DynamicScenario(std::uint32_t n, Slot horizon) : n_(n), horizon_(horizon) {}

  /// Ends station u's run of appended slots; a station with none is dropped.
  void close_station(StationId u) {
    if (slots_.size() == offsets_.back()) return;
    stations_.push_back(u);
    offsets_.push_back(slots_.size());
  }

  std::uint32_t n_ = 0;
  Slot horizon_ = 0;
  std::vector<StationId> stations_;
  /// stations_[i] owns slots_[offsets_[i], offsets_[i + 1]).
  std::vector<std::size_t> offsets_ = {0};
  std::vector<Slot> slots_;
};

}  // namespace wakeup::mac
