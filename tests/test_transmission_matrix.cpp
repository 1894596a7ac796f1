#include "combinatorics/transmission_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "protocols/wakeup_matrix.hpp"
#include "util/rng.hpp"

namespace wc = wakeup::comb;
namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace wu = wakeup::util;

namespace {

/// The §5.3 membership bit written out from scratch, with none of the
/// oracle's cached hash prefixes or incremental columns: u ∈ M_{row, col}
/// iff hash_words({seed, "MATRIX", row, col mod ℓ, u}) has its top
/// e = row + ρ(col mod ℓ) bits zero, and never when e >= 64.
bool reference_member(const wc::MatrixParams& p, std::uint64_t seed, unsigned row,
                      std::uint64_t col, wc::Station u) {
  const std::uint64_t j = col % p.ell;
  const unsigned e = row + static_cast<unsigned>(j % p.window);
  if (e >= 64) return false;
  return (wu::hash_words({seed, 0x4d4154524958ULL, row, j, u}) >> (64 - e)) == 0;
}

/// What station u woken at `wake` transmits at slot t: nothing before
/// µ(wake), then the reference bit of the row MatrixParams::row_at names.
bool reference_slot(const wc::MatrixParams& p, std::uint64_t seed, wm::Slot wake, wm::Slot t,
                    wc::Station u) {
  const auto row = p.row_at(wake, t);
  return row.has_value() && reference_member(p, seed, *row, static_cast<std::uint64_t>(t), u);
}

/// Block starts that exercise every incremental state: slot 0, one block
/// before the first row boundary and before the scan's wrap, past one full
/// scan, and straddling ℓ.
std::vector<wm::Slot> block_starts(const wc::MatrixParams& p, wm::Slot wake) {
  const wm::Slot mu = p.mu(wake);
  const auto scan = static_cast<wm::Slot>(p.total_scan());
  const auto ell = static_cast<wm::Slot>(p.ell);
  std::vector<wm::Slot> starts = {0, mu + static_cast<wm::Slot>(p.m(1)) - 64, mu + scan - 64,
                                  mu + scan + 5, ell - 32};
  for (auto& from : starts) from = std::max<wm::Slot>(from, 0);
  return starts;
}

}  // namespace

TEST(MatrixParams, DerivedQuantities) {
  const auto p = wc::MatrixParams::make(1024, 2);
  EXPECT_EQ(p.n, 1024u);
  EXPECT_EQ(p.rows, 10u);    // log2 1024
  EXPECT_EQ(p.window, 4u);   // ceil(log2 10)
  EXPECT_EQ(p.ell, 2ULL * 2 * 1024 * 10 * 4);
}

TEST(MatrixParams, SmallNClamps) {
  const auto p = wc::MatrixParams::make(2, 1);
  EXPECT_EQ(p.rows, 1u);
  EXPECT_EQ(p.window, 1u);
  EXPECT_GE(p.ell, 1u);
}

TEST(MatrixParams, RowScanLengths) {
  const auto p = wc::MatrixParams::make(256, 2);
  // m_i = c * 2^i * rows * window.
  EXPECT_EQ(p.m(1), 2ULL * 2 * p.rows * p.window);
  EXPECT_EQ(p.m(2), 2ULL * 4 * p.rows * p.window);
  EXPECT_EQ(p.m(p.rows), 2ULL * 256 * p.rows * p.window);
  // total = c * (2^{rows+1} - 2) * rows * window.
  EXPECT_EQ(p.total_scan(), 2ULL * (512 - 2) * p.rows * p.window);
}

TEST(MatrixParams, RhoCyclesThroughWindow) {
  const auto p = wc::MatrixParams::make(256, 2);  // window = 3
  for (std::uint64_t j = 0; j < 32; ++j) {
    EXPECT_EQ(p.rho(j), j % p.window);
  }
}

TEST(MatrixParams, MuRoundsUpToWindowMultiple) {
  const auto p = wc::MatrixParams::make(1024, 2);  // window = 4
  EXPECT_EQ(p.mu(0), 0);
  EXPECT_EQ(p.mu(1), 4);
  EXPECT_EQ(p.mu(3), 4);
  EXPECT_EQ(p.mu(4), 4);
  EXPECT_EQ(p.mu(5), 8);
  // µ(σ) - σ < window always.
  for (std::int64_t sigma = 0; sigma < 100; ++sigma) {
    EXPECT_GE(p.mu(sigma), sigma);
    EXPECT_LT(p.mu(sigma) - sigma, static_cast<std::int64_t>(p.window));
    EXPECT_EQ(p.mu(sigma) % static_cast<std::int64_t>(p.window), 0);
  }
}

TEST(MatrixParams, RowAtWaitsUntilMu) {
  const auto p = wc::MatrixParams::make(1024, 2);
  const std::int64_t sigma = 5;  // mu = 8
  EXPECT_FALSE(p.row_at(sigma, 5).has_value());
  EXPECT_FALSE(p.row_at(sigma, 7).has_value());
  ASSERT_TRUE(p.row_at(sigma, 8).has_value());
  EXPECT_EQ(*p.row_at(sigma, 8), 1u);
}

TEST(MatrixParams, RowAtWalksRowsInOrder) {
  const auto p = wc::MatrixParams::make(64, 1);
  const std::int64_t sigma = 0;
  std::int64_t t = p.mu(sigma);
  for (unsigned i = 1; i <= p.rows; ++i) {
    // First and last slot of row i.
    EXPECT_EQ(*p.row_at(sigma, t), i);
    t += static_cast<std::int64_t>(p.m(i));
    EXPECT_EQ(*p.row_at(sigma, t - 1), i);
  }
}

TEST(MatrixParams, RowAtWrapsAfterFullScan) {
  const auto p = wc::MatrixParams::make(64, 1);
  const std::int64_t total = static_cast<std::int64_t>(p.total_scan());
  EXPECT_EQ(*p.row_at(0, total), 1u);      // restart at row 1
  EXPECT_EQ(*p.row_at(0, 2 * total), 1u);
}

TEST(LazyMatrix, DeterministicAndSeedSensitive) {
  const auto p = wc::MatrixParams::make(64, 1);
  const wc::LazyTransmissionMatrix a(p, 42), b(p, 42), c(p, 43);
  int diffs = 0;
  for (unsigned row = 1; row <= p.rows; ++row) {
    for (std::uint64_t col = 0; col < 64; ++col) {
      for (wc::Station u = 0; u < 64; u += 5) {
        EXPECT_EQ(a.contains(row, col, u), b.contains(row, col, u));
        if (a.contains(row, col, u) != c.contains(row, col, u)) ++diffs;
      }
    }
  }
  EXPECT_GT(diffs, 0);
}

TEST(LazyMatrix, ColumnsWrapModEll) {
  const auto p = wc::MatrixParams::make(32, 1);
  const wc::LazyTransmissionMatrix m(p, 9);
  for (std::uint64_t col = 0; col < 40; ++col) {
    for (wc::Station u = 0; u < 32; u += 3) {
      EXPECT_EQ(m.contains(1, col, u), m.contains(1, col + p.ell, u));
    }
  }
}

TEST(LazyMatrix, MembershipFrequencyMatchesProbability) {
  // Row i, column with rho(j)=r: Prob[u in M_{i,j}] = 2^{-(i+r)}.
  const auto p = wc::MatrixParams::make(1024, 2);  // window 4, rows 10
  const wc::LazyTransmissionMatrix m(p, 1234);
  for (unsigned row : {1u, 2u, 3u}) {
    for (unsigned r = 0; r < p.window; ++r) {
      std::uint64_t hits = 0, total = 0;
      // Sample across stations and aligned columns.
      for (std::uint64_t col = r; col < 2000; col += p.window) {
        for (wc::Station u = 0; u < 256; ++u) {
          hits += m.contains(row, col, u) ? 1 : 0;
          ++total;
        }
      }
      const double expected = static_cast<double>(total) / std::pow(2.0, row + r);
      EXPECT_NEAR(static_cast<double>(hits), expected, 6.0 * std::sqrt(expected) + 2.0)
          << "row=" << row << " rho=" << r;
    }
  }
}

TEST(LazyMatrix, ProbabilityAccessor) {
  const auto p = wc::MatrixParams::make(1024, 2);
  const wc::LazyTransmissionMatrix m(p, 5);
  EXPECT_DOUBLE_EQ(m.probability(1, 0), 0.5);         // rho(0)=0, e=1
  EXPECT_DOUBLE_EQ(m.probability(1, 1), 0.25);        // rho(1)=1, e=2
  EXPECT_DOUBLE_EQ(m.probability(2, 0), 0.25);
  EXPECT_DOUBLE_EQ(m.probability(63, 1), 0.0);        // e >= 64 clamps to 0
}

TEST(DenseMatrix, MatchesLazy) {
  const auto p = wc::MatrixParams::make(8, 1);  // rows=3, window=2, ell small
  const wc::LazyTransmissionMatrix lazy(p, 77);
  const auto dense = wc::DenseTransmissionMatrix::materialize(lazy);
  for (unsigned row = 1; row <= p.rows; ++row) {
    for (std::uint64_t col = 0; col < p.ell; ++col) {
      for (wc::Station u = 0; u < p.n; ++u) {
        EXPECT_EQ(dense.contains(row, col, u), lazy.contains(row, col, u))
            << "row=" << row << " col=" << col << " u=" << u;
      }
    }
  }
}

TEST(DenseMatrix, CellSetsAreConsistent) {
  const auto p = wc::MatrixParams::make(8, 1);
  const wc::LazyTransmissionMatrix lazy(p, 78);
  const auto dense = wc::DenseTransmissionMatrix::materialize(lazy);
  const auto& cell = dense.cell(1, 3);
  for (wc::Station u : cell.members()) {
    EXPECT_TRUE(lazy.contains(1, 3, u));
  }
}

TEST(LazyMatrix, ContainsMatchesReferenceFormula) {
  for (const std::uint32_t n : {2u, 8u, 37u, 256u, 4096u}) {
    for (const unsigned c : {1u, 2u}) {
      const auto p = wc::MatrixParams::make(n, c);
      const std::uint64_t seed = wu::hash_words({n, c, 31});
      const wc::LazyTransmissionMatrix matrix(p, seed);
      // Rows past `rows` and past the prefix table stay answerable.
      std::vector<unsigned> rows = {33, 40, 62, 63, 64, 70};
      for (unsigned row = 1; row <= p.rows + 1; ++row) rows.push_back(row);
      for (const unsigned row : rows) {
        for (std::uint64_t col : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5},
                                  p.ell - 1, p.ell, p.ell + 3, 7 * p.ell + 11}) {
          for (std::uint64_t step = 0; step < 8; ++step, ++col) {
            for (const wc::Station u : {0u, 1u, n / 2, n - 1}) {
              ASSERT_EQ(matrix.contains(row, col, u), reference_member(p, seed, row, col, u))
                  << "n=" << n << " c=" << c << " row=" << row << " col=" << col << " u=" << u;
            }
          }
        }
      }
    }
  }
}

// The emitters of protocol wakeup(u, σ) — the word-level schedule_block and
// schedule_tile, and the slot-level runtime — against the written-out
// formula, so a change that moved realized bits consistently in the oracle
// and every emitter still fails here.
TEST(LazyMatrix, EmittersMatchReferenceFormula) {
  const std::vector<wm::Slot> wakes = {0, 1, 5, 129};
  for (const std::uint32_t n : {2u, 8u, 37u, 256u, 4096u}) {
    for (const unsigned c : {1u, 2u}) {
      const wp::WakeupMatrixProtocol protocol(n, c, 1234);
      const auto& p = protocol.matrix().params();
      const std::uint64_t seed = protocol.matrix().seed();
      for (const wm::Slot wake : wakes) {
        const auto starts = block_starts(p, wake);
        for (const wc::Station u : {0u, n / 3, n - 1}) {
          for (const wm::Slot from : starts) {
            for (const std::size_t n_words : {1u, 3u, 8u}) {
              std::vector<std::uint64_t> words(n_words, ~std::uint64_t{0});
              protocol.schedule_block(u, wake, from, words.data(), n_words);
              for (std::size_t b = 0; b < 64 * n_words; ++b) {
                const wm::Slot t = from + static_cast<wm::Slot>(b);
                ASSERT_EQ((words[b / 64] >> (b % 64)) & 1u,
                          reference_slot(p, seed, wake, t, u) ? 1u : 0u)
                    << "n=" << n << " c=" << c << " wake=" << wake << " u=" << u
                    << " from=" << from << " n_words=" << n_words << " t=" << t;
              }
            }
          }
          // The runtime is stepped through every slot, as the interpreter
          // does, and checked inside each 8-word block.
          auto runtime = protocol.make_runtime(u, wake);
          const wm::Slot horizon = *std::max_element(starts.begin(), starts.end()) + 512;
          for (wm::Slot t = wake; t < horizon; ++t) {
            const bool bit = runtime->transmits(t);
            const bool checked = std::any_of(starts.begin(), starts.end(), [t](wm::Slot from) {
              return t >= from && t < from + 512;
            });
            if (!checked) continue;
            ASSERT_EQ(bit, reference_slot(p, seed, wake, t, u))
                << "n=" << n << " c=" << c << " wake=" << wake << " u=" << u << " t=" << t;
          }
        }
      }

      // schedule_tile: one call over stations of several µ classes — the
      // wakes above plus two falling inside the tile — at every block start
      // of every wake, so tiles straddle each class's row boundary and
      // scan wrap while the other classes sit elsewhere in their scans.
      std::vector<wm::Slot> froms;
      for (const wm::Slot wake : wakes) {
        const auto starts = block_starts(p, wake);
        froms.insert(froms.end(), starts.begin(), starts.end());
      }
      for (const wm::Slot from : froms) {
        for (const std::size_t n_words : {1u, 3u, 8u}) {
          std::vector<std::pair<wm::Slot, wc::Station>> members;
          for (const wm::Slot wake :
               {wm::Slot{0}, wm::Slot{1}, wm::Slot{5}, wm::Slot{129}, from + 1,
                from + static_cast<wm::Slot>(64 * n_words) - 7}) {
            for (const wc::Station u : {0u, n / 3, n - 1}) members.emplace_back(wake, u);
          }
          std::vector<std::vector<std::uint64_t>> rows(
              members.size(), std::vector<std::uint64_t>(n_words, ~std::uint64_t{0}));
          std::vector<wp::ObliviousSchedule::TileStation> stations;
          for (std::size_t i = 0; i < members.size(); ++i) {
            stations.push_back({members[i].second, members[i].first, rows[i].data()});
          }
          protocol.schedule_tile(stations, from, n_words);
          for (std::size_t i = 0; i < members.size(); ++i) {
            const auto [wake, u] = members[i];
            for (std::size_t b = 0; b < 64 * n_words; ++b) {
              const wm::Slot t = from + static_cast<wm::Slot>(b);
              ASSERT_EQ((rows[i][b / 64] >> (b % 64)) & 1u,
                        reference_slot(p, seed, wake, t, u) ? 1u : 0u)
                  << "tile n=" << n << " c=" << c << " wake=" << wake << " u=" << u
                  << " from=" << from << " n_words=" << n_words << " t=" << t;
            }
          }
        }
      }
    }
  }
}
