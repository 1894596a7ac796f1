#include "protocols/wakeup_matrix.hpp"

#include <algorithm>
#include <array>

#include "util/simd.hpp"

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
  const auto ell = static_cast<Slot>(p.ell);
  // A run of stations with one operative slot µ(wake) — one row per slot.
  struct Group {
    std::size_t begin;
    std::size_t end;
    Slot operative;
  };
  std::array<Group, kTileChunk> groups;
  std::array<std::uint64_t, kTileChunk> keys;  // mix64(u) per station
  std::array<std::uint64_t, kTileChunk> words;
  // Per slot of the current word, shared by every group: the column's mix
  // and its ρ.
  std::array<std::uint64_t, 64> mixed_col;
  std::array<unsigned, 64> rho;
  // Per slot, for the group being emitted: its row prefix
  // hash_combine(row_state(row), mix64(col)), the row that prefix is for
  // (0: none yet this word), and the bound a station's hash must fall
  // below — its top e = row + ρ bits are zero iff it is below 2^(64 - e).
  // A zero bound silences the slot for the group (before its operative
  // slot, or e >= 64).  Groups come in µ order, and a later µ is never at
  // a later row of the scan, so each row is reached by one run of groups
  // at a slot and its prefix is computed once per (row, slot).
  std::array<std::uint64_t, 64> prefix{};
  std::array<unsigned, 64> prefix_row;
  std::array<std::uint64_t, 64> bound;
  for (std::size_t c0 = 0; c0 < stations.size(); c0 += kTileChunk) {
    const auto chunk = stations.subspan(c0, std::min(kTileChunk, stations.size() - c0));
    // Stations sorted by wake (as the batch engine passes them) form one
    // group per operative slot.
    std::size_t n_groups = 0;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      keys[i] = util::mix64(chunk[i].u);
      const Slot operative = p.mu(chunk[i].wake);
      if (n_groups == 0 || groups[n_groups - 1].operative != operative) {
        groups[n_groups++] = {i, i, operative};
      }
      groups[n_groups - 1].end = i + 1;
    }
    // Column state at `from`, then advanced one slot at a time.
    auto col = static_cast<std::uint64_t>((from % ell + ell) % ell);
    unsigned r = p.rho(col);
    for (std::size_t w = 0; w < n_words; ++w) {
      const Slot t0 = from + static_cast<Slot>(64 * w);
      for (unsigned j = 0; j < 64; ++j) {
        mixed_col[j] = util::mix64(col);
        rho[j] = r;
        next_column(p, col, r);
      }
      prefix_row.fill(0);
      for (std::size_t g = 0; g < n_groups; ++g) {
        const Group& group = groups[g];
        const Slot operative = group.operative;
        if (t0 + 64 <= operative) {  // the whole group waits for its window boundary
          for (std::size_t i = group.begin; i < group.end; ++i) chunk[i].out_words[w] = 0;
          continue;
        }
        // Row state at the word's first operative slot: the runtime's scan
        // walks rows 1..rows cyclically with durations m(i) starting at
        // `operative`, so whole scans change nothing and the rest is
        // replayed.
        const Slot first = std::max(t0, operative);
        unsigned row = 1;
        Slot row_end = operative + static_cast<Slot>(p.m(1));
        if (scan > 0 && first - operative >= scan) {
          row_end += ((first - operative) / scan) * scan;
        }
        for (unsigned j = 0; j < 64; ++j) {
          const Slot t = t0 + static_cast<Slot>(j);
          bound[j] = 0;
          if (t < operative) continue;
          while (t >= row_end) {
            row = row < p.rows ? row + 1 : 1;  // wrap: restart the scan
            row_end += static_cast<Slot>(p.m(row));
          }
          const unsigned e = row + rho[j];
          if (e >= 64) continue;
          if (prefix_row[j] != row) {
            prefix[j] = util::hash_combine(matrix_.row_state(row), mixed_col[j]);
            prefix_row[j] = row;
          }
          bound[j] = std::uint64_t{1} << (64 - e);
        }
        const std::size_t count = group.end - group.begin;
        util::simd::hash_below(prefix.data(), bound.data(), keys.data() + group.begin, count,
                               words.data());
        for (std::size_t i = 0; i < count; ++i) chunk[group.begin + i].out_words[w] = words[i];
      }
    }
  }
}

}  // namespace wakeup::proto
