#pragma once

/// \file cell_trials.hpp
/// The one per-cell collector and the one cell summary.
///
/// `sim::Run` adds every trial of a cell to a `CellTrials` and returns it
/// (`RunOutcome::trials`); nothing is summarized until the caller asks.
/// Each trial's observables land in its trial slot — never in completion
/// order — so `finalize()` is bitwise identical for every worker count.
/// `finalize()` produces the cell's `CellStats`: mean / median / p95 / max
/// rounds, success rate, and seeded percentile-bootstrap confidence
/// intervals for the mean and the median (util::BootstrapCI).  The sweep
/// writes it to the manifest, `wakeup_cli run` prints it, and the benches
/// read it.

#include <cstdint>
#include <vector>

#include "sim/dynamic.hpp"
#include "sim/mc_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace wakeup::sim {

/// Summarized outcome of one cell (single runs are 1-trial cells).
struct CellStats {
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;   ///< trials that exhausted the slot budget
  double success_rate = 0.0;    ///< (trials - failures) / trials
  util::Summary rounds;         ///< rounds to wake-up over successful trials
  util::Summary collisions;
  util::Summary silences;
  /// Full-resolution rounds over the successful trials that completed
  /// (SimConfig::full_resolution; empty otherwise).
  util::Summary completion;
  /// Bootstrap CIs for the cell's headline statistic: mean/median rounds
  /// for static cells, mean/median per-trial throughput for dynamic ones.
  util::BootstrapCI rounds_mean_ci;
  util::BootstrapCI rounds_median_ci;

  // -- Dynamic traffic (horizon > 0 runs; zero for static cells) --------
  util::Summary throughput;  ///< delivered packets per slot, per trial
  util::Summary jain;        ///< Jain's fairness index, per trial
  /// Queue latency pooled over every delivered packet of every trial (in
  /// trial order, so the percentiles are thread-count-independent).
  util::Summary latency;
  std::uint64_t packet_arrivals = 0;  ///< total packets arrived, all trials
  std::uint64_t delivered = 0;
  std::uint64_t backlog = 0;  ///< still queued at the horizon, all trials

  // -- Energy accounting (SimConfig::energy != kOff; zero otherwise) ----
  /// Per-trial mean / max station energy (slots transmitting or listening),
  /// summarized over every trial — failed trials included: they burn the
  /// whole budget, which is exactly what an energy measurement must see.
  /// Filled for static single-channel and dynamic runs; the C-channel
  /// model does not account energy.
  util::Summary energy_mean;
  util::Summary energy_max;
  util::BootstrapCI energy_mean_ci;  ///< bootstrap CI of the per-trial means
};

/// Collects the per-trial results of one cell.  `add` may be called
/// concurrently for distinct trial indices (the RunSpec per-trial
/// contract); `finalize` must only run after every trial landed.
/// Construct with `dynamic = true` for dynamic-traffic cells.
class CellTrials {
 public:
  CellTrials() = default;
  explicit CellTrials(std::uint64_t trials, bool dynamic = false);

  void add(std::uint64_t trial, const SimResult& result);
  void add(std::uint64_t trial, const McSimResult& result);
  void add(std::uint64_t trial, const DynamicResult& result);

  /// Statistics over the recorded trials, CIs at the 95% level seeded by
  /// `ci_seed` (deterministic: same trials + seed => identical CellStats,
  /// regardless of the order `add` was called in).  `ci_resamples` == 0
  /// degenerates the CIs to [estimate, estimate].
  [[nodiscard]] CellStats finalize(std::uint64_t ci_resamples = 0,
                                   std::uint64_t ci_seed = 0) const;

 private:
  struct TrialSlot {
    bool success = false;
    double rounds = 0;
    double collisions = 0;
    double silences = 0;
    bool completed = false;
    double completion = 0;
    bool has_energy = false;
    double energy_mean = 0;
    double energy_max = 0;
  };
  struct DynamicSlot {
    double throughput = 0;
    double jain = 0;
    double collisions = 0;
    double silences = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t delivered = 0;
    std::uint64_t backlog = 0;
    std::vector<double> latency;
    bool has_energy = false;
    double energy_mean = 0;
    double energy_max = 0;
  };

  std::uint64_t trials_ = 0;
  std::vector<TrialSlot> slots_;            ///< empty for dynamic cells
  std::vector<DynamicSlot> dynamic_slots_;  ///< empty unless dynamic
};

}  // namespace wakeup::sim
