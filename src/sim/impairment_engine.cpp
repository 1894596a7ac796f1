#include "sim/impairment_engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace wakeup::sim {
namespace {

void set_slot_bit(std::vector<std::uint64_t>& words, Slot t) {
  words[static_cast<std::size_t>(t) / 64] |= std::uint64_t{1}
                                             << (static_cast<std::size_t>(t) % 64);
}

/// Failures before the first success of Bernoulli(p) — O(1) per gap, the
/// same draw arrival_process.cpp uses for Poisson streams.
Slot geometric_gap(double p, util::Rng& rng) {
  if (p >= 1.0) return 0;
  const double u = 1.0 - rng.uniform01();  // in (0, 1]
  return static_cast<Slot>(std::log(u) / std::log1p(-p));
}

/// Floyd's uniform sampling of `count` distinct values out of [0, bound).
std::vector<Slot> choose_slots(Slot bound, std::uint64_t count, util::Rng& rng) {
  std::unordered_set<Slot> chosen;
  chosen.reserve(static_cast<std::size_t>(count));
  for (Slot j = bound - static_cast<Slot>(count); j < bound; ++j) {
    const auto t = static_cast<Slot>(rng.uniform(static_cast<std::uint64_t>(j) + 1));
    chosen.insert(chosen.contains(t) ? j : t);
  }
  std::vector<Slot> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Slot> realize_jam_schedule(const mac::ImpairmentSpec& spec, Slot horizon,
                                       util::Rng& rng) {
  const std::uint64_t budget =
      std::min<std::uint64_t>(spec.jam_budget, static_cast<std::uint64_t>(horizon));
  std::vector<Slot> slots;
  switch (spec.jam_sched) {
    case mac::JamSchedule::kFront:
      slots.reserve(static_cast<std::size_t>(budget));
      for (std::uint64_t i = 0; i < budget; ++i) slots.push_back(static_cast<Slot>(i));
      break;
    case mac::JamSchedule::kSpread:
      slots.reserve(static_cast<std::size_t>(budget));
      for (std::uint64_t i = 0; i < budget; ++i) {
        slots.push_back(static_cast<Slot>(
            (static_cast<std::uint64_t>(horizon) * i) / budget));
      }
      break;
    case mac::JamSchedule::kRandom:
      slots = choose_slots(horizon, budget, rng);
      break;
    case mac::JamSchedule::kAdversarial:
      throw std::invalid_argument(
          "compile_impairment: an adversarial jam schedule must be resolved by "
          "sim::search_worst_jam first and passed in as jam_override");
  }
  return slots;
}

/// Floyd-samples `count` distinct positions from `pool` and moves them to
/// `out`, removing them from the pool (selection order is normalized by the
/// final sort, so the pool's residual order does not leak into later draws).
std::vector<StationId> draw_stations(std::vector<StationId>& pool, std::size_t count,
                                     util::Rng& rng) {
  std::vector<StationId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t at = static_cast<std::size_t>(rng.uniform(pool.size()));
    out.push_back(pool[at]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t fault_count(double fraction, std::size_t population) {
  if (fraction <= 0.0 || population == 0) return 0;
  const auto count = static_cast<std::size_t>(fraction * static_cast<double>(population));
  return std::max<std::size_t>(1, std::min(count, population));
}

/// A realized prefix starts at one 8-word (512-slot) tile and doubles.
constexpr std::size_t kFirstRealizedWords = 8;

/// The prefix size a read of word w >= old_size realizes to: through w, at
/// least one tile and at least double; old_size when w is past the horizon.
std::size_t grown_size(std::size_t w, std::size_t old_size, Slot horizon) {
  const auto n_words = static_cast<std::size_t>((horizon + 63) / 64);
  if (w >= n_words) return old_size;
  return std::min(n_words, std::max({w + 1, 2 * old_size, kFirstRealizedWords}));
}

}  // namespace

std::uint64_t ImpairmentPlan::realize_noise(std::size_t w) const {
  if (!spec.has_noise()) return 0;
  const std::size_t from = noise_.size();
  const std::size_t to = grown_size(w, from, horizon);
  if (to == from) return 0;
  noise_.resize(to, 0);
  const Slot end = std::min(static_cast<Slot>(to) * 64, horizon);
  if (spec.noise == mac::NoiseKind::kIid) {
    while (next_noisy_ < end) {
      set_slot_bit(noise_, next_noisy_);
      next_noisy_ += 1 + geometric_gap(spec.noise_p, noise_rng_);
    }
  } else {
    // 2-state Markov noise: stationary noisy probability P, burst-end
    // probability SWITCH per slot (mean burst 1/SWITCH slots).
    for (Slot t = static_cast<Slot>(from) * 64; t < end; ++t) {
      if (bursting_) {
        set_slot_bit(noise_, t);
        if (noise_rng_.bernoulli(spec.noise_switch)) bursting_ = false;
      } else if (noise_rng_.bernoulli(enter_p_)) {
        bursting_ = true;
      }
    }
  }
  return noise_[w];
}

std::uint64_t ImpairmentPlan::realize_corrupt(std::size_t w) const {
  if (!corrupts()) return 0;
  const std::size_t from = corrupt_.size();
  const std::size_t to = grown_size(w, from, horizon);
  if (to == from) return 0;
  corrupt_.resize(to, 0);
  const Slot end = static_cast<Slot>(to) * 64;
  for (; jam_cursor_ < jam_slots.size() && jam_slots[jam_cursor_] < end; ++jam_cursor_) {
    set_slot_bit(corrupt_, jam_slots[jam_cursor_]);
  }
  // A byzantine station interferes like a fair-coin jammer: p = 1/2 per
  // slot, one raw rng word per 64 slots.
  for (util::Rng& rng : byzantine_rngs_) {
    for (std::size_t v = from; v < to; ++v) corrupt_[v] |= rng.next_u64();
  }
  // Bits past the horizon would double-count in corrupted_in.
  if (end > horizon) corrupt_.back() &= (std::uint64_t{1} << (horizon % 64)) - 1;
  return corrupt_[w];
}

std::uint64_t ImpairmentPlan::corrupted_in(Slot lo, Slot hi) const {
  if (!corrupts() || hi <= lo) return 0;
  lo = std::max<Slot>(lo, 0);
  hi = std::min<Slot>(hi, horizon);
  std::uint64_t count = 0;
  for (Slot t = lo; t < hi;) {
    const std::size_t w = static_cast<std::size_t>(t) / 64;
    const unsigned bit = static_cast<unsigned>(t) % 64;
    std::uint64_t word = corrupt_word(w) >> bit;
    const Slot span = std::min<Slot>(64 - bit, hi - t);
    if (span < 64) word &= (std::uint64_t{1} << span) - 1;
    count += static_cast<std::uint64_t>(std::popcount(word));
    t += span;
  }
  return count;
}

Slot ImpairmentPlan::crash_cutoff(StationId u) const noexcept {
  const auto it = std::lower_bound(
      crashes.begin(), crashes.end(), u,
      [](const std::pair<StationId, Slot>& c, StationId id) { return c.first < id; });
  return it != crashes.end() && it->first == u ? it->second : -1;
}

bool ImpairmentPlan::is_byzantine(StationId u) const noexcept {
  return std::binary_search(byzantine.begin(), byzantine.end(), u);
}

ImpairmentPlan compile_impairment(const mac::ImpairmentSpec& spec, std::uint64_t seed,
                                  Slot horizon, const std::vector<StationId>* stations,
                                  const std::vector<Slot>* jam_override) {
  if (horizon <= 0)
    throw std::invalid_argument("compile_impairment: horizon must be positive");
  ImpairmentPlan plan;
  plan.spec = spec;
  plan.horizon = horizon;
  if (spec.clean() && (jam_override == nullptr || jam_override->empty())) return plan;

  // Each clause draws from its own split substream: realizations are
  // independent of one another and of the order clauses are compiled in
  // (so the adversarial jam search varies placement against a fixed noise
  // background) or their words are read in.
  const util::Rng rng(util::hash_words({seed, 0x494d50ULL /* "IMP" */}));

  if (spec.has_noise()) {
    plan.noise_rng_ = rng.split(0x4e4f495345ULL /* "NOISE" */);
    if (spec.noise == mac::NoiseKind::kIid) {
      plan.next_noisy_ = geometric_gap(spec.noise_p, plan.noise_rng_);
    } else {
      // The quiet -> noisy rate follows from stationarity: on/(on+off) = P;
      // the chain starts in the stationary distribution.
      plan.enter_p_ = std::min(1.0, spec.noise_switch * spec.noise_p / (1.0 - spec.noise_p));
      plan.bursting_ = plan.noise_rng_.bernoulli(spec.noise_p);
    }
  }

  if (jam_override != nullptr) {
    plan.jam_slots.reserve(jam_override->size());
    for (const Slot t : *jam_override) {
      if (t >= 0 && t < horizon) plan.jam_slots.push_back(t);
    }
    std::sort(plan.jam_slots.begin(), plan.jam_slots.end());
    plan.jam_slots.erase(std::unique(plan.jam_slots.begin(), plan.jam_slots.end()),
                         plan.jam_slots.end());
  } else if (spec.has_jam()) {
    util::Rng sub = rng.split(0x4a414dULL /* "JAM" */);
    plan.jam_slots = realize_jam_schedule(spec, horizon, sub);
  }

  if (spec.has_faults()) {
    if (stations == nullptr) {
      throw std::invalid_argument(
          "compile_impairment: crash/byzantine clauses need the participating-station "
          "list (fault models are dynamic-layer features)");
    }
    std::vector<StationId> pool = *stations;
    const std::size_t n_byz = fault_count(spec.byzantine_f, pool.size());
    const std::size_t n_crash =
        std::min(fault_count(spec.crash_f, pool.size()), pool.size() - n_byz);
    if (n_byz > 0) {
      util::Rng sub = rng.split(0x42595aULL /* "BYZ" */);
      plan.byzantine = draw_stations(pool, n_byz, sub);
    }
    if (n_crash > 0) {
      util::Rng sub = rng.split(0x435253ULL /* "CRS" */);
      const std::vector<StationId> crashed = draw_stations(pool, n_crash, sub);
      plan.crashes.reserve(n_crash);
      for (const StationId u : crashed) {
        const Slot cutoff = spec.crash_slot >= 0
                                ? std::min(spec.crash_slot, horizon)
                                : static_cast<Slot>(
                                      sub.uniform(static_cast<std::uint64_t>(horizon)));
        plan.crashes.emplace_back(u, cutoff);
      }
    }
  }

  plan.byzantine_rngs_.reserve(plan.byzantine.size());
  for (const StationId u : plan.byzantine) {
    plan.byzantine_rngs_.push_back(rng.split(0x42595a00000000ULL ^ (std::uint64_t{u} + 1)));
  }
  return plan;
}

}  // namespace wakeup::sim
