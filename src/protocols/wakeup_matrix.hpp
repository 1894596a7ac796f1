#pragma once

/// \file wakeup_matrix.hpp
/// Protocol `wakeup(u, σ)` (paper §5.1) — the Scenario C algorithm, driven
/// by a waking matrix.
///
/// A station woken at σ waits until µ(σ) (next multiple of log log n), then
/// scans the matrix rows top to bottom: row i for m_i = c·2^i·log n·log log n
/// slots, transmitting at slot t iff it belongs to M_{i, t mod ℓ}.
/// Completes wake-up in O(k log n log log n) slots (Theorem 5.3).
///
/// The matrix is the seeded random construction of §5.3 (membership
/// probability 2^{-(i+ρ(j))}), evaluated lazily; see
/// combinatorics/transmission_matrix.hpp for the faithfulness argument.

#include "combinatorics/transmission_matrix.hpp"
#include "protocols/protocol.hpp"

namespace wakeup::proto {

class WakeupMatrixProtocol final : public Protocol, public ObliviousSchedule {
 public:
  /// `c` is the §5.1 constant (schedule pacing and matrix length); `seed`
  /// instantiates the random matrix.
  WakeupMatrixProtocol(std::uint32_t n, unsigned c, std::uint64_t seed)
      : matrix_(comb::MatrixParams::make(n, c),
                util::hash_words({seed, 0x574b4d4154ULL /* "WKMAT" */, n, c})) {}

  explicit WakeupMatrixProtocol(comb::LazyTransmissionMatrix matrix) : matrix_(matrix) {}

  [[nodiscard]] std::string name() const override { return "wakeup_matrix"; }
  [[nodiscard]] Requirements requirements() const override { return {}; }  // knows only n
  [[nodiscard]] std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                             Slot wake) const override;
  [[nodiscard]] const ObliviousSchedule* oblivious_schedule() const override { return this; }
  /// One station's words: the one-station case of schedule_tile.
  void schedule_block(StationId u, Slot wake, Slot from, std::uint64_t* out_words,
                      std::size_t n_words) const override;
  /// At slot t every station reads column t mod ℓ, and every station with
  /// the same operative slot µ(σ) reads the same row, so a bit is
  /// hash_combine(P(row, t), mix64(u)) < 2^(64 − row − ρ) with the row
  /// prefix P shared by the group: mix64(t mod ℓ) once per slot, P once per
  /// (row, slot) for all groups of the tile, then one util::simd::hash_below
  /// lane per station bit.  Stations sorted by wake (as the batch engine
  /// passes them) form one group per operative slot.
  void schedule_tile(std::span<const TileStation> stations, Slot from,
                     std::size_t n_words) const override;

  [[nodiscard]] const comb::LazyTransmissionMatrix& matrix() const noexcept { return matrix_; }

 private:
  comb::LazyTransmissionMatrix matrix_;
};

}  // namespace wakeup::proto
