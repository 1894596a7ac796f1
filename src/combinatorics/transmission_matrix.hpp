#pragma once

/// \file transmission_matrix.hpp
/// The Scenario C transmission matrix (paper §5.1–5.3).
///
/// A (log n × ℓ) matrix M of transmission sets with ℓ = 2c·n·log n·log log n.
/// Row i is scanned for m_i = c·2^i·log n·log log n slots; a station woken at
/// σ becomes operative at µ(σ) (the next multiple of log log n) and walks the
/// rows top to bottom; columns correspond to global time mod ℓ.  The random
/// construction (§5.3) puts u ∈ M_{i,j} independently with probability
/// 2^{-(i + ρ(j))}, ρ(j) = j mod log log n.
///
/// The paper proves such a matrix is a *waking matrix* (isolates a station
/// by the first well-balanced round) with positive probability and
/// derandomizes existentially.  This implementation instantiates the random
/// object from a seed and evaluates membership lazily — a pure function of
/// (seed, row, column, station) — so the full ℓ-column matrix never needs to
/// be materialized.  A dense materialization is provided for small-n
/// verification.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "combinatorics/transmission_set.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace wakeup::comb {

/// All derived quantities of the §5 construction for a given (n, c).
struct MatrixParams {
  /// `make` gives rows = ceil(log2 n) <= 32 for any 32-bit n.
  static constexpr unsigned kMaxRows = 32;

  std::uint32_t n = 0;
  unsigned c = 2;        ///< the "sufficiently large constant" of §5.1
  unsigned rows = 1;     ///< log n (clamped >= 1)
  unsigned window = 1;   ///< log log n (clamped >= 1) — W in Definition 5.1
  std::uint64_t ell = 0; ///< matrix length ℓ = 2c·n·rows·window

  [[nodiscard]] static MatrixParams make(std::uint32_t n, unsigned c);

  /// m_i = c·2^i·log n·log log n — slots a station spends on row i (1-based).
  [[nodiscard]] std::uint64_t m(unsigned i) const noexcept {
    return (static_cast<std::uint64_t>(c) << i) * rows * window;
  }

  /// Σ_{i=1..rows} m_i = c·(2^{rows+1} − 2)·log n·log log n — one full
  /// top-to-bottom scan.
  [[nodiscard]] std::uint64_t total_scan() const noexcept {
    return static_cast<std::uint64_t>(c) * ((std::uint64_t{2} << rows) - 2) * rows * window;
  }

  /// ρ(j) = j mod window.
  [[nodiscard]] unsigned rho(std::uint64_t col) const noexcept {
    return static_cast<unsigned>(col % window);
  }

  /// µ(σ) = min { l >= σ : l ≡ 0 mod window } — operative slot of a station
  /// woken at σ.
  [[nodiscard]] std::int64_t mu(std::int64_t sigma) const noexcept {
    const auto w = static_cast<std::int64_t>(window);
    const std::int64_t r = sigma % w;
    return r == 0 ? sigma : sigma + (w - r);
  }

  /// The row (1-based) whose sets a station woken at `sigma` obeys at slot
  /// `t`, or nullopt while it is still waiting (t < µ(σ)).  After one full
  /// scan the protocol wraps and restarts from row 1 (the paper's guarantee
  /// fires well before that; wrapping keeps the runtime total).
  [[nodiscard]] std::optional<unsigned> row_at(std::int64_t sigma, std::int64_t t) const noexcept;
};

/// Membership oracle for the seeded random matrix.  Stateless apart from
/// the hash prefix of each row, so one query is a few 64-bit mixes.
class LazyTransmissionMatrix {
 public:
  LazyTransmissionMatrix(MatrixParams params, std::uint64_t seed) noexcept
      : params_(params),
        seed_(seed),
        base_state_(util::hash_words({seed, 0x4d4154524958ULL /* "MATRIX" */})) {
    for (unsigned row = 1; row <= MatrixParams::kMaxRows; ++row) {
      row_states_[row - 1] = util::hash_combine(base_state_, util::mix64(row));
    }
  }

  [[nodiscard]] const MatrixParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Is u ∈ M_{row, col mod ℓ}?  row is 1-based (1..rows).  The bit is
  /// hash_words({seed, "MATRIX", row, col mod ℓ, u}) having its top
  /// row + ρ bits zero.
  [[nodiscard]] bool contains(unsigned row, std::uint64_t col, Station u) const noexcept {
    const std::uint64_t j = col % params_.ell;
    return member(row, j, params_.rho(j), util::mix64(u));
  }

  /// contains() for a column j already reduced mod ℓ, its ρ = j mod window,
  /// and the station pre-mixed as util::mix64(u) — the per-slot step of
  /// the schedule emitters, which advance j and ρ one slot at a time and
  /// mix their station once.
  [[nodiscard]] bool member(unsigned row, std::uint64_t j, unsigned rho,
                            std::uint64_t mixed_u) const noexcept {
    const unsigned e = row + rho;
    if (e >= 64) return false;  // probability below 2^-63 — never fires
    const std::uint64_t h =
        util::hash_combine(util::hash_combine(row_state(row), util::mix64(j)), mixed_u);
    return (h >> (64 - e)) == 0;
  }

  /// hash_words({seed, "MATRIX", row}): hash_words has no finalizer, so
  /// every membership hash of `row` continues from this state — the
  /// prefix all stations share at one (row, column).
  [[nodiscard]] std::uint64_t row_state(unsigned row) const noexcept {
    return row - 1 < MatrixParams::kMaxRows ? row_states_[row - 1]
                                            : util::hash_combine(base_state_, util::mix64(row));
  }

  /// Membership probability of row/column (for tests of the construction).
  [[nodiscard]] double probability(unsigned row, std::uint64_t col) const noexcept {
    const unsigned e = row + params_.rho(col % params_.ell);
    return e >= 64 ? 0.0 : 1.0 / static_cast<double>(std::uint64_t{1} << e);
  }

 private:
  MatrixParams params_;
  std::uint64_t seed_;
  std::uint64_t base_state_;  ///< hash_words({seed, "MATRIX"})
  std::array<std::uint64_t, MatrixParams::kMaxRows> row_states_{};  ///< rows 1..kMaxRows
};

/// Fully materialized matrix for small n: rows × ℓ transmission sets.
/// Memory is O(rows · ℓ · n / 8) — use only in tests and structure benches.
class DenseTransmissionMatrix {
 public:
  [[nodiscard]] static DenseTransmissionMatrix materialize(const LazyTransmissionMatrix& lazy);

  [[nodiscard]] const MatrixParams& params() const noexcept { return params_; }
  [[nodiscard]] bool contains(unsigned row, std::uint64_t col, Station u) const noexcept {
    return cell(row, col).contains(u);
  }
  /// row is 1-based, col taken mod ℓ.
  [[nodiscard]] const TransmissionSet& cell(unsigned row, std::uint64_t col) const noexcept {
    return cells_[(row - 1) * params_.ell + (col % params_.ell)];
  }

 private:
  MatrixParams params_;
  std::vector<TransmissionSet> cells_;
};

}  // namespace wakeup::comb
