#include "protocols/wakeup_matrix.hpp"

#include <algorithm>

namespace wakeup::proto {
namespace {

/// Advances a column j < ℓ and its ρ = j mod window to the next slot
/// without dividing.
void next_column(const comb::MatrixParams& p, std::uint64_t& col, unsigned& rho) noexcept {
  if (++col == p.ell) {
    col = 0;
    rho = 0;
  } else if (++rho == p.window) {
    rho = 0;
  }
}

/// Tracks the row scan and the column incrementally: transmits() is called
/// once for every slot from the wake on (the StationRuntime contract), so
/// no per-slot row search or division is needed.  Equivalence with the
/// declarative MatrixParams::row_at is asserted in tests.
class WakeupMatrixRuntime final : public StationRuntime {
 public:
  WakeupMatrixRuntime(StationId u, Slot wake, const comb::LazyTransmissionMatrix& matrix)
      : mixed_u_(util::mix64(u)), matrix_(matrix) {
    const auto& p = matrix_.params();
    operative_ = p.mu(wake);
    row_ = 1;
    row_end_ = operative_ + static_cast<Slot>(p.m(1));
    col_ = static_cast<std::uint64_t>(operative_) % p.ell;
    rho_ = p.rho(col_);
  }

  [[nodiscard]] bool transmits(Slot t) override {
    const auto& p = matrix_.params();
    if (t < operative_) return false;  // waiting for the window boundary
    while (t >= row_end_) {
      if (row_ < p.rows) {
        ++row_;
      } else {
        row_ = 1;  // wrap: restart the scan (§5.1 guarantee fires earlier)
      }
      row_end_ += static_cast<Slot>(p.m(row_));
    }
    const bool hit = matrix_.member(row_, col_, rho_, mixed_u_);
    next_column(p, col_, rho_);
    return hit;
  }

 private:
  std::uint64_t mixed_u_;
  const comb::LazyTransmissionMatrix& matrix_;
  Slot operative_ = 0;
  unsigned row_ = 1;
  Slot row_end_ = 0;
  std::uint64_t col_ = 0;  ///< the next slot mod ℓ
  unsigned rho_ = 0;       ///< col_ mod window
};

}  // namespace

std::unique_ptr<StationRuntime> WakeupMatrixProtocol::make_runtime(StationId u, Slot wake) const {
  return std::make_unique<WakeupMatrixRuntime>(u, wake, matrix_);
}

void WakeupMatrixProtocol::schedule_block(StationId u, Slot wake, Slot from,
                                          std::uint64_t* out_words, std::size_t n_words) const {
  const auto& p = matrix_.params();
  const Slot operative = p.mu(wake);
  // Row state at the first queried slot: the runtime's scan walks rows
  // 1..rows cyclically with durations m(i) starting at `operative`, so the
  // state at any slot is recoverable by reducing the elapsed time modulo
  // one full scan and replaying the prefix.
  unsigned row = 1;
  Slot row_end = operative + static_cast<Slot>(p.m(1));
  const auto scan = static_cast<Slot>(p.total_scan());
  Slot t = from;
  if (t > operative && scan > 0) {
    const Slot skipped = ((t - operative) / scan) * scan;
    row_end += skipped;  // whole scans carry no row-state change
  }
  // Column state at the first evaluated slot, then advanced per slot.
  std::uint64_t col = static_cast<std::uint64_t>(std::max(from, operative)) % p.ell;
  unsigned rho = p.rho(col);
  const std::uint64_t mixed_u = util::mix64(u);
  for (std::size_t w = 0; w < n_words; ++w) {
    std::uint64_t word = 0;
    for (unsigned j = 0; j < 64; ++j, ++t) {
      if (t < operative) continue;  // waiting for the window boundary
      while (t >= row_end) {
        row = row < p.rows ? row + 1 : 1;  // wrap: restart the scan
        row_end += static_cast<Slot>(p.m(row));
      }
      if (matrix_.member(row, col, rho, mixed_u)) word |= std::uint64_t{1} << j;
      next_column(p, col, rho);
    }
    out_words[w] = word;
  }
}

}  // namespace wakeup::proto
