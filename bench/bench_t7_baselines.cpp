/// T7 — global clock vs local clock (the paper's comparison with [9] and
/// the Conclusions conjecture).
///
/// Paper claims: Scenario C's O(k log n log log n) is substantially better
/// than the best known locally-synchronized protocol (O(k log² n) of
/// Chlebus et al. [9]); the conclusions conjecture the global-clock
/// advantage is inherent.
///
/// The regimes differ:
///   * simultaneous start — the local-clock doubling baseline degenerates
///     to the synchronized Komlós–Greenberg schedule (its best case);
///   * contended asynchronous arrival (dense stagger) — local schedules
///     shear against each other, while the matrix protocol's µ-window
///     alignment keeps rows coherent.
/// Expected shape: under real contention (simultaneous / burst) the matrix
/// protocol wins by a large factor — the local-clock baseline must grind
/// through its family concatenation from every station's private time
/// origin, while the matrix's ρ-discounted rows isolate early.  On sparse
/// staggers both are cheap.  RPD is fast on average everywhere but only in
/// expectation.

#include <iostream>

#include "bench_common.hpp"

using namespace wakeup;

int main() {
  sim::ResultsSink sink("t7_baselines",
                        {"n", "k", "pattern", "wakeup_matrix", "local_doubling", "rpd_n",
                         "local/matrix"});

  const std::uint32_t n = 1024;
  struct PatternCase {
    const char* label;
    std::function<mac::WakePattern(util::Rng&, std::uint32_t)> gen;
  };
  const std::vector<PatternCase> cases = {
      {"simultaneous",
       [](util::Rng& rng, std::uint32_t k) {
         return mac::patterns::simultaneous(n, k, 0, rng);
       }},
      {"stagger_1",
       [](util::Rng& rng, std::uint32_t k) {
         return mac::patterns::staggered(n, k, 0, 1, rng);
       }},
      {"burst_pair",
       [](util::Rng& rng, std::uint32_t k) {
         return mac::patterns::batched(n, k, 0, 2, 2, rng);
       }},
  };

  for (std::uint32_t k : {16u, 64u, 128u, 256u}) {
    for (const auto& pattern_case : cases) {
      auto gen = [&pattern_case, k](util::Rng& rng) { return pattern_case.gen(rng, k); };
      const auto matrix = sim::Run(bench::cell_for("wakeup_matrix", n, k, 0, gen, 12),
                                        &bench::pool()).trials.finalize();
      const auto local = sim::Run(bench::cell_for("local_doubling", n, k, 0, gen, 12),
                                       &bench::pool()).trials.finalize();
      const auto rpd =
          sim::Run(bench::cell_for("rpd_n", n, k, 0, gen, 12), &bench::pool()).trials.finalize();
      sink.cell(std::uint64_t{n})
          .cell(std::uint64_t{k})
          .cell(pattern_case.label)
          .cell(matrix.rounds.mean, 1)
          .cell(local.rounds.mean, 1)
          .cell(rpd.rounds.mean, 1)
          .cell(matrix.rounds.mean > 0 ? local.rounds.mean / matrix.rounds.mean : 0.0, 2);
      sink.end_row();
    }
  }
  sink.flush("T7: global clock (wakeup_matrix) vs local clock (local_doubling) vs RPD, n = 1024");
  std::cout << "Claim check: local/matrix >> 1 wherever contention is real — the\n"
               "global-clock waking matrix is substantially better than the\n"
               "locally-synchronized baseline, the paper's claimed advantage over [9].\n";
  return 0;
}
