#include "combinatorics/transmission_matrix.hpp"

namespace wakeup::comb {

MatrixParams MatrixParams::make(std::uint32_t n, unsigned c) {
  MatrixParams p;
  p.n = n;
  p.c = c == 0 ? 1 : c;
  p.rows = util::log2n_clamped(n);
  p.window = util::loglog2n_clamped(n);
  p.ell = 2ULL * p.c * n * p.rows * p.window;
  if (p.ell == 0) p.ell = 1;
  return p;
}

std::optional<unsigned> MatrixParams::row_at(std::int64_t sigma, std::int64_t t) const noexcept {
  const std::int64_t operative = mu(sigma);
  if (t < operative) return std::nullopt;
  auto offset = static_cast<std::uint64_t>(t - operative);
  offset %= total_scan();  // wrap: restart the scan after exhausting row `rows`
  for (unsigned i = 1; i <= rows; ++i) {
    const std::uint64_t mi = m(i);
    if (offset < mi) return i;
    offset -= mi;
  }
  return rows;  // unreachable: offset < total_scan by construction
}

DenseTransmissionMatrix DenseTransmissionMatrix::materialize(const LazyTransmissionMatrix& lazy) {
  DenseTransmissionMatrix dense;
  dense.params_ = lazy.params();
  const auto& p = dense.params_;
  dense.cells_.reserve(static_cast<std::size_t>(p.rows) * p.ell);
  for (unsigned row = 1; row <= p.rows; ++row) {
    for (std::uint64_t col = 0; col < p.ell; ++col) {
      util::DynamicBitset bits(p.n);
      for (Station u = 0; u < p.n; ++u) {
        if (lazy.contains(row, col, u)) bits.set(u);
      }
      dense.cells_.emplace_back(std::move(bits));
    }
  }
  return dense;
}

}  // namespace wakeup::comb
