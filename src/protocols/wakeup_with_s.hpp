#pragma once

/// \file wakeup_with_s.hpp
/// `wakeup_with_s` (paper §3): the Scenario A algorithm — round-robin
/// interleaved with `select_among_the_first`.
///
/// Slots are split by the parity of t - s (possible because every station
/// knows s): even offsets run round-robin (every awake station takes its
/// TDM turn), odd offsets run `select_among_the_first` (only stations woken
/// exactly at s).  The interleaving costs a factor of 2 and gives
/// min{n-k+1, O(k log(n/k))} = Θ(k log(n/k) + 1), which is optimal.
///
/// Implemented monolithically rather than via the generic `Interleaved`
/// combinator: the SATF participation rule compares *real* wake times with
/// s, which the combinator's virtual-time mapping cannot express faithfully.

#include "combinatorics/doubling_schedule.hpp"
#include "protocols/protocol.hpp"

namespace wakeup::proto {

class WakeupWithSProtocol final : public Protocol, public ObliviousSchedule {
 public:
  WakeupWithSProtocol(Slot s, comb::DoublingSchedulePtr schedule)
      : s_(s), schedule_(std::move(schedule)) {}

  [[nodiscard]] std::string name() const override { return "wakeup_with_s"; }
  [[nodiscard]] Requirements requirements() const override {
    Requirements r;
    r.needs_start_time = true;
    return r;
  }
  [[nodiscard]] std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                             Slot wake) const override;
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override { return this; }
  /// One station's words: the one-station case of schedule_tile.
  void schedule_block(StationId u, Slot wake, Slot from, std::uint64_t* out_words,
                      std::size_t n_words) const override;
  /// The SATF half's 32 bits of a word are half of one virtual schedule
  /// word shared by every participant, so each DoublingSchedule::Window
  /// serves two words of the tile; the round-robin half is strided bits.
  void schedule_tile(std::span<const TileStation> stations, Slot from,
                     std::size_t n_words) const override;

  [[nodiscard]] Slot s() const noexcept { return s_; }
  [[nodiscard]] const comb::DoublingSchedule& schedule() const noexcept { return *schedule_; }

 private:
  Slot s_;
  comb::DoublingSchedulePtr schedule_;
};

/// Convenience factory: builds the doubling schedule for universe n,
/// truncated to a prefix of n sets — the round-robin half succeeds within
/// 2n slots of the first wake, so SATF sets past index n are unreachable
/// before success and materializing families up to k = n buys nothing.
[[nodiscard]] ProtocolPtr make_wakeup_with_s(std::uint32_t n, Slot s,
                                             comb::FamilyKind kind, std::uint64_t seed,
                                             double family_c = comb::kDefaultRandomFamilyC);

}  // namespace wakeup::proto
