#pragma once

/// \file select_among_the_first.hpp
/// `select_among_the_first` (paper §3, Scenario A component).
///
/// Only stations woken exactly at the (globally known) start slot s
/// participate; everyone woken later stays silent forever.  Participants
/// transmit according to the concatenation of (n,2^j)-selective families,
/// j = 1, 2, ... — since the participant set X is frozen (all woke at s),
/// the family whose selectivity window contains |X| isolates a station
/// within O(k + k log(n/k)) slots.

#include "combinatorics/doubling_schedule.hpp"
#include "protocols/protocol.hpp"

namespace wakeup::proto {

class SelectAmongTheFirstProtocol final : public Protocol, public ObliviousSchedule {
 public:
  /// `schedule` must be the doubling concatenation built for universe n;
  /// `s` is the known first wake slot.
  SelectAmongTheFirstProtocol(Slot s, comb::DoublingSchedulePtr schedule)
      : s_(s), schedule_(std::move(schedule)) {}

  [[nodiscard]] std::string name() const override { return "select_among_the_first"; }
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
  /// Participants read schedule index t − s at slot t, so each word of the
  /// tile is one DoublingSchedule::Window for all of them.
  void schedule_tile(std::span<const TileStation> stations, Slot from,
                     std::size_t n_words) const override;

  [[nodiscard]] Slot s() const noexcept { return s_; }
  [[nodiscard]] const comb::DoublingSchedule& schedule() const noexcept { return *schedule_; }

 private:
  Slot s_;
  comb::DoublingSchedulePtr schedule_;
};

}  // namespace wakeup::proto
