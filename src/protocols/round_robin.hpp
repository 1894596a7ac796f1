#pragma once

/// \file round_robin.hpp
/// Round-robin (time-division multiplexing): station u transmits exactly
/// when t ≡ u (mod n).
///
/// Completes wake-up within n - k + 1 rounds — at most n - k slots can be
/// wasted on sleeping stations' turns (§3).  Asymptotically optimal for
/// k > n/c by Corollary 2.1; both Scenario A and B algorithms interleave it
/// to cover that regime.

#include "protocols/protocol.hpp"

namespace wakeup::proto {

class RoundRobinProtocol final : public Protocol, public ObliviousSchedule {
 public:
  explicit RoundRobinProtocol(std::uint32_t n) : n_(n == 0 ? 1 : n) {}

  [[nodiscard]] std::string name() const override { return "round_robin"; }
  [[nodiscard]] Requirements requirements() const override { return {}; }
  [[nodiscard]] std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                             Slot wake) const override;
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override { return this; }
  void schedule_block(StationId u, Slot wake, Slot from, std::uint64_t* out_words,
                      std::size_t n_words) const override;
  [[nodiscard]] bool words_are_cheap() const override { return true; }

  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }

 private:
  std::uint32_t n_;
};

}  // namespace wakeup::proto
