#pragma once

/// \file wait_and_go.hpp
/// `wait_and_go` (paper §4, Scenario B component).
///
/// The schedule is the cyclic concatenation F = <F_1, ..., F_{⌈log k⌉}> of
/// (n,2^i)-selective families, of period z.  A station woken at slot j
/// remains silent until the smallest σ >= j such that F_{σ mod z} is the
/// first set of some family, then transmits according to F_{t mod z} for
/// every t >= σ.  Freezing newcomers until a family boundary guarantees the
/// participant set of each family never changes during its execution, so
/// the family bracketing |X_i| isolates a station.

#include "combinatorics/doubling_schedule.hpp"
#include "protocols/protocol.hpp"

namespace wakeup::proto {

class WaitAndGoProtocol final : public Protocol, public ObliviousSchedule {
 public:
  explicit WaitAndGoProtocol(comb::DoublingSchedulePtr schedule)
      : schedule_(std::move(schedule)) {}

  [[nodiscard]] std::string name() const override { return "wait_and_go"; }
  [[nodiscard]] Requirements requirements() const override {
    Requirements r;
    r.needs_k = true;  // the schedule depth depends on k
    return r;
  }
  [[nodiscard]] std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                             Slot wake) const override;
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override { return this; }
  /// One station's words: the one-station case of schedule_tile.
  void schedule_block(StationId u, Slot wake, Slot from, std::uint64_t* out_words,
                      std::size_t n_words) const override;
  /// Every station reads the same schedule index at a slot, so each word
  /// of the tile is one DoublingSchedule::Window for all stations past
  /// their family boundary.
  void schedule_tile(std::span<const TileStation> stations, Slot from,
                     std::size_t n_words) const override;

  [[nodiscard]] const comb::DoublingSchedule& schedule() const noexcept { return *schedule_; }

 private:
  comb::DoublingSchedulePtr schedule_;
};

/// Builds the ⌈log k⌉-family schedule and wraps it.
[[nodiscard]] ProtocolPtr make_wait_and_go(std::uint32_t n, std::uint32_t k,
                                           comb::FamilyKind kind, std::uint64_t seed,
                                           double family_c = comb::kDefaultRandomFamilyC);

}  // namespace wakeup::proto
