#pragma once

/// \file impairment_engine.hpp
/// Compiles a `mac::ImpairmentSpec` into per-trial 64-slot word masks.
///
/// The engines never interpret the spec themselves: `compile_impairment`
/// draws one trial's jam and fault placements up front and sets up the
/// clause streams of an `ImpairmentPlan`, whose two word sequences (noise,
/// corrupt), indexed by absolute slot / 64, are realized on first read, as
/// far as the trial reads them.  Every engine (interpreter, static batch,
/// multichannel, dynamic) folds the same words into its slot reductions.
/// That keeps interpreter ≡ batch bit-identity trivially: both read the
/// *same realization*, not the same distribution.
///
/// Word algebra applied by the batch engines after each OR-reduction
/// (any = "someone transmitted", multi = "two or more transmitted"):
///
///   multi |= (any & noise) | corrupt;   // noisy solo garbles, jam collides
///   any   |= corrupt;                   // a jammed silent slot is audible
///
/// so a corrupted slot reads as a collision even with zero transmitters and
/// a noisy slot only degrades an actual transmission.  The interpreter's
/// per-slot equivalent is `effective_outcome` below.
///
/// Determinism contract: the plan is a pure function of (spec, seed,
/// horizon, stations, jam_override), whatever order its words are read
/// in.  The seed is the trial seed hashed with the "IMP" tag; each clause
/// draws from its own split substream, so e.g. the noise realization is
/// independent of the jam placement — the adversarial jam search compares
/// candidate schedules against a fixed noise background — and a word reads
/// the same whether the words before it were realized or not yet.
///
/// One reader at a time: the accessors are const but realize into mutable
/// state, so a plan must not be read from two threads at once.  A copy
/// resumes the same streams and reads the same bits; give each thread its
/// own (`sim::Run` compiles or copies one plan per trial).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mac/impairment.hpp"
#include "mac/types.hpp"
#include "util/rng.hpp"

namespace wakeup::sim {

using mac::Slot;
using mac::StationId;

struct ImpairmentPlan;

/// Compiles `spec` over slots [0, horizon) from the trial seed.
///
/// `stations` is the participating-station population fault clauses draw
/// from (the dynamic scenario's station list; an empty one, a trial without
/// arrivals, draws no faults); passing nullptr while the spec has
/// crash/byzantine clauses throws — the static layer validates faults away
/// before ever compiling.  `jam_override`, when non-null,
/// replaces the spec's jam schedule with an explicit slot list (the
/// adversarial search's resolved placement); required when jam_sched is
/// kAdversarial.
[[nodiscard]] ImpairmentPlan compile_impairment(
    const mac::ImpairmentSpec& spec, std::uint64_t seed, Slot horizon,
    const std::vector<StationId>* stations = nullptr,
    const std::vector<Slot>* jam_override = nullptr);

/// One trial's impairments, compiled to engine-ready word masks.
///
/// The words cover slots [0, horizon); accessors answer 0 (clean) beyond
/// that, so a simulation running past the compiled horizon degrades to a
/// clean channel instead of reading out of bounds.  A read past the
/// realized prefix realizes forward to the word read, growing the prefix
/// geometrically from one 8-word (512-slot) tile, so realization costs
/// the slots a trial walks, not the horizon it was given.
struct ImpairmentPlan {
  mac::ImpairmentSpec spec;
  Slot horizon = 0;
  /// The realized jam schedule, ascending (reported and reused by the
  /// adversarial search; byzantine interference is not listed here).
  std::vector<Slot> jam_slots;
  /// (station, cutoff): the station stops transmitting at slots >= cutoff.
  /// Sorted by station id.
  std::vector<std::pair<StationId, Slot>> crashes;
  /// Byzantine station ids, ascending.
  std::vector<StationId> byzantine;

  [[nodiscard]] bool clean() const noexcept {
    return !spec.has_noise() && jam_slots.empty() && crashes.empty() && byzantine.empty();
  }
  /// Bit t%64 of word t/64: feedback noise garbles slot t.
  [[nodiscard]] std::uint64_t noise_word(std::size_t w) const {
    return w < noise_.size() ? noise_[w] : realize_noise(w);
  }
  /// Jam and byzantine interference merged: slot t reads as a collision.
  [[nodiscard]] std::uint64_t corrupt_word(std::size_t w) const {
    return w < corrupt_.size() ? corrupt_[w] : realize_corrupt(w);
  }
  [[nodiscard]] bool noisy(Slot t) const {
    return t >= 0 && ((noise_word(static_cast<std::size_t>(t) / 64) >>
                       (static_cast<std::size_t>(t) % 64)) &
                      1) != 0;
  }
  [[nodiscard]] bool corrupted(Slot t) const {
    return t >= 0 && ((corrupt_word(static_cast<std::size_t>(t) / 64) >>
                       (static_cast<std::size_t>(t) % 64)) &
                      1) != 0;
  }
  /// Number of corrupted slots in [lo, hi) — the multichannel adapter's
  /// side-lane accounting.
  [[nodiscard]] std::uint64_t corrupted_in(Slot lo, Slot hi) const;
  /// First slot at which `u` has crashed, or -1 if it never does.
  [[nodiscard]] Slot crash_cutoff(StationId u) const noexcept;
  [[nodiscard]] bool is_byzantine(StationId u) const noexcept;
  /// True iff station `u` still follows its protocol at slot t.
  [[nodiscard]] bool participates(StationId u, Slot t) const noexcept {
    if (is_byzantine(u)) return false;
    const Slot cutoff = crash_cutoff(u);
    return cutoff < 0 || t < cutoff;
  }

  /// The slot outcome listeners perceive, given the true transmitter count.
  [[nodiscard]] mac::SlotOutcome effective_outcome(Slot t, std::size_t transmitters) const {
    if (corrupted(t)) return mac::SlotOutcome::kCollision;
    if (transmitters == 0) return mac::SlotOutcome::kSilence;
    if (transmitters > 1) return mac::SlotOutcome::kCollision;
    return noisy(t) ? mac::SlotOutcome::kCollision : mac::SlotOutcome::kSuccess;
  }

 private:
  friend ImpairmentPlan compile_impairment(const mac::ImpairmentSpec&, std::uint64_t, Slot,
                                           const std::vector<StationId>*,
                                           const std::vector<Slot>*);

  /// Realize through word w (and a geometric stretch beyond); 0 past the
  /// horizon or without the clause.
  std::uint64_t realize_noise(std::size_t w) const;
  std::uint64_t realize_corrupt(std::size_t w) const;
  [[nodiscard]] bool corrupts() const noexcept {
    return !jam_slots.empty() || !byzantine_rngs_.empty();
  }

  // Realized prefixes and the clause streams, resumed where they stopped.
  mutable std::vector<std::uint64_t> noise_;
  mutable std::vector<std::uint64_t> corrupt_;
  mutable util::Rng noise_rng_{0};
  /// iid: the next noisy slot, drawn but not yet set.
  mutable Slot next_noisy_ = 0;
  /// bursty: the Markov state at the first unrealized slot.
  mutable bool bursting_ = false;
  double enter_p_ = 0.0;  ///< bursty: quiet -> noisy probability per slot
  /// jam_slots[jam_cursor_..] lie past the realized corrupt prefix.
  mutable std::size_t jam_cursor_ = 0;
  /// One stream per byzantine station, one word per 64 slots.
  mutable std::vector<util::Rng> byzantine_rngs_;
};

}  // namespace wakeup::sim
