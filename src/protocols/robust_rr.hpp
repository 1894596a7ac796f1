#pragma once

/// \file robust_rr.hpp
/// Repetition round-robin: station u transmits in a run of r consecutive
/// slots, exactly when (t / r) mod n == u.
///
/// The graceful-degradation baseline of the channel-impairment subsystem
/// (mac/impairment.hpp).  Plain round-robin loses a station's entire turn
/// to a single noisy or jammed slot; the r-fold repetition survives any
/// r - 1 impaired slots of a turn — under iid feedback noise p a turn
/// stays clean with probability 1 - p^r instead of 1 - p, and a budgeted
/// jammer must spend r slots (not 1) to erase one station's turn.  The
/// price is an r-fold stretch: wake-up completes within r(n - k + 1)
/// clean slots.

#include "protocols/protocol.hpp"

namespace wakeup::proto {

class RobustRoundRobinProtocol final : public Protocol, public ObliviousSchedule {
 public:
  RobustRoundRobinProtocol(std::uint32_t n, std::uint32_t r)
      : n_(n == 0 ? 1 : n), r_(r < 2 ? 2 : r) {}

  [[nodiscard]] std::string name() const override { return "robust_rr"; }
  [[nodiscard]] Requirements requirements() const override { return {}; }
  [[nodiscard]] std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                             Slot wake) const override;
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override { return this; }
  void schedule_block(StationId u, Slot wake, Slot from, std::uint64_t* out_words,
                      std::size_t n_words) const override;
  [[nodiscard]] bool words_are_cheap() const override { return true; }

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t repetitions() const noexcept { return r_; }

 private:
  std::uint32_t n_;
  std::uint32_t r_;
};

}  // namespace wakeup::proto
