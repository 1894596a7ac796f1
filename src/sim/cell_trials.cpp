#include "sim/cell_trials.hpp"

#include <algorithm>
#include <tuple>

namespace wakeup::sim {

namespace {

constexpr double kCiLevel = 0.95;

/// Reduces one trial's station energy to the slot's mean and max; leaves
/// the slot alone when accounting was off (empty vector).
template <class Slot>
void fold_energy(const std::vector<std::uint64_t>& station_energy, Slot& slot) {
  if (station_energy.empty()) return;
  slot.has_energy = true;
  double sum = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t e : station_energy) {
    sum += static_cast<double>(e);
    max = std::max(max, e);
  }
  slot.energy_mean = sum / static_cast<double>(station_energy.size());
  slot.energy_max = static_cast<double>(max);
}

}  // namespace

CellTrials::CellTrials(std::uint64_t trials, bool dynamic)
    : trials_(trials), slots_(dynamic ? 0 : trials), dynamic_slots_(dynamic ? trials : 0) {}

void CellTrials::add(std::uint64_t trial, const SimResult& result) {
  TrialSlot& slot = slots_.at(trial);
  slot.success = result.success;
  slot.rounds = static_cast<double>(result.rounds);
  slot.collisions = static_cast<double>(result.collisions);
  slot.silences = static_cast<double>(result.silences);
  slot.completed = result.completed;
  slot.completion = static_cast<double>(result.completion_rounds);
  fold_energy(result.station_energy, slot);
}

void CellTrials::add(std::uint64_t trial, const McSimResult& result) {
  // The C-channel model has no full-resolution drain and accounts no
  // energy; its cells finalize with empty completion and energy summaries.
  TrialSlot& slot = slots_.at(trial);
  slot.success = result.success;
  slot.rounds = static_cast<double>(result.rounds);
  slot.collisions = static_cast<double>(result.collisions);
  slot.silences = static_cast<double>(result.silences);
}

void CellTrials::add(std::uint64_t trial, const DynamicResult& result) {
  DynamicSlot& slot = dynamic_slots_.at(trial);
  slot.throughput = result.throughput();
  slot.jain = result.jain();
  slot.collisions = static_cast<double>(result.collisions);
  slot.silences = static_cast<double>(result.silences);
  slot.arrivals = result.arrivals;
  slot.delivered = result.delivered;
  slot.backlog = result.backlog;
  slot.latency = result.latency;
  fold_energy(result.station_energy, slot);
}

CellStats CellTrials::finalize(std::uint64_t ci_resamples, std::uint64_t ci_seed) const {
  CellStats stats;
  stats.trials = trials_;
  util::Sample collisions, silences, energy_mean, energy_max;
  const auto push_energy = [&](const auto& slot) {
    if (!slot.has_energy) return;
    energy_mean.push(slot.energy_mean);
    energy_max.push(slot.energy_max);
  };

  // The headline sample the CIs bootstrap: per-trial throughput for
  // dynamic cells, rounds over the successful trials for static ones.
  util::Sample headline;
  if (!dynamic_slots_.empty()) {
    // Dynamic cells: the horizon is the budget and every slot of it
    // resolves, so there is no exhaustion to fail on.
    stats.success_rate = 1.0;
    util::Sample jain, latency;
    std::size_t pooled = 0;
    for (const DynamicSlot& slot : dynamic_slots_) pooled += slot.latency.size();
    latency.reserve(pooled);
    for (const DynamicSlot& slot : dynamic_slots_) {
      headline.push(slot.throughput);
      jain.push(slot.jain);
      collisions.push(slot.collisions);
      silences.push(slot.silences);
      for (const double l : slot.latency) latency.push(l);
      stats.packet_arrivals += slot.arrivals;
      stats.delivered += slot.delivered;
      stats.backlog += slot.backlog;
      push_energy(slot);
    }
    stats.throughput = util::Summary::of(headline);
    stats.jain = util::Summary::of(jain);
    stats.latency = util::Summary::of(latency);
  } else {
    util::Sample completion;
    headline.reserve(slots_.size());
    for (const TrialSlot& slot : slots_) {
      // Energy lands whether or not the trial reached wake-up (a failed
      // trial pays the whole budget), so push before the success gate.
      push_energy(slot);
      if (!slot.success) {
        ++stats.failures;
        continue;
      }
      headline.push(slot.rounds);
      collisions.push(slot.collisions);
      silences.push(slot.silences);
      if (slot.completed) completion.push(slot.completion);
    }
    stats.success_rate = stats.trials == 0 ? 0.0
                                           : static_cast<double>(stats.trials - stats.failures) /
                                                 static_cast<double>(stats.trials);
    stats.rounds = util::Summary::of(headline);
    stats.completion = util::Summary::of(completion);
  }
  stats.collisions = util::Summary::of(collisions);
  stats.silences = util::Summary::of(silences);
  // With energy on, the samples differ in size only when some static trial
  // failed (energy counts failed trials, rounds do not); of_means then
  // takes two passes.
  std::tie(stats.rounds_mean_ci, stats.energy_mean_ci) =
      util::BootstrapCI::of_means(headline, energy_mean, kCiLevel, ci_resamples, ci_seed);
  stats.rounds_median_ci =
      util::BootstrapCI::of_quantile(headline, 0.5, kCiLevel, ci_resamples, ci_seed);
  stats.energy_mean = util::Summary::of(energy_mean);
  stats.energy_max = util::Summary::of(energy_max);
  return stats;
}

}  // namespace wakeup::sim
