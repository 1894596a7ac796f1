#include "protocols/wakeup_matrix.hpp"

#include <algorithm>
#include <array>

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
  const TileStation station{u, wake, out_words};
  schedule_tile({&station, 1}, from, n_words);
}

void WakeupMatrixProtocol::schedule_tile(std::span<const TileStation> stations, Slot from,
                                         std::size_t n_words) const {
  const auto& p = matrix_.params();
  const auto scan = static_cast<Slot>(p.total_scan());
  // Per slot of the current word: the group's row prefix, and the bound a
  // station's hash must fall below — its top e = row + ρ bits are zero iff
  // it is below 2^(64 - e).  A zero bound silences the slot for everyone
  // (before the operative slot, or e >= 64).
  std::array<std::uint64_t, 64> prefix{};
  std::array<std::uint64_t, 64> bound{};
  for (std::size_t g = 0; g < stations.size();) {
    const Slot operative = p.mu(stations[g].wake);
    std::size_t g_end = g + 1;
    while (g_end < stations.size() && p.mu(stations[g_end].wake) == operative) ++g_end;

    // Row state at `from`: the runtime's scan walks rows 1..rows cyclically
    // with durations m(i) starting at `operative`, so the state at any slot
    // is recoverable by reducing the elapsed time modulo one full scan and
    // replaying the prefix.
    unsigned row = 1;
    Slot row_end = operative + static_cast<Slot>(p.m(1));
    if (from > operative && scan > 0) {
      row_end += ((from - operative) / scan) * scan;  // whole scans change no row state
    }
    // Column state at the first evaluated slot, then advanced per slot.
    std::uint64_t col = static_cast<std::uint64_t>(std::max(from, operative)) % p.ell;
    unsigned rho = p.rho(col);
    Slot t = from;
    for (std::size_t w = 0; w < n_words; ++w) {
      for (unsigned j = 0; j < 64; ++j, ++t) {
        bound[j] = 0;
        if (t < operative) continue;  // waiting for the window boundary
        while (t >= row_end) {
          row = row < p.rows ? row + 1 : 1;  // wrap: restart the scan
          row_end += static_cast<Slot>(p.m(row));
        }
        const unsigned e = row + rho;
        if (e < 64) {
          prefix[j] = util::hash_combine(matrix_.row_state(row), util::mix64(col));
          bound[j] = std::uint64_t{1} << (64 - e);
        }
        next_column(p, col, rho);
      }
      for (std::size_t i = g; i < g_end; ++i) {
        const std::uint64_t mixed_u = util::mix64(stations[i].u);
        std::uint64_t word = 0;
        for (unsigned j = 0; j < 64; ++j) {
          word |= static_cast<std::uint64_t>(util::hash_combine(prefix[j], mixed_u) < bound[j])
                  << j;
        }
        stations[i].out_words[w] = word;
      }
    }
    g = g_end;
  }
}

}  // namespace wakeup::proto
