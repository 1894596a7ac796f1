/// T2 — Scenario A scaling: wakeup_with_s in Θ(k log(n/k) + 1).
///
/// Paper claim (§3): with the start time s known, the interleaving of
/// round-robin and select_among_the_first wakes up in Θ(k log(n/k) + 1)
/// rounds, which is optimal.
///
/// Expected shape: mean rounds / (k log2(n/k) + 1) roughly flat in k and n
/// (constant factor absorbs the family constant c and the 2x interleaving).

#include <iostream>

#include "bench_common.hpp"

using namespace wakeup;

int main() {
  sim::ResultsSink sink("t2_scenario_a", {"n", "k", "pattern", "mean rounds", "p95", "bound",
                                          "mean/bound", "failures"});

  for (std::uint32_t n : {256u, 1024u, 4096u}) {
    for (std::uint32_t k : {2u, 4u, 8u, 16u, 32u, 64u}) {
      if (k > n / 4) continue;
      for (const auto kind :
           {mac::patterns::Kind::kSimultaneous, mac::patterns::Kind::kUniform}) {
        auto cell = bench::cell_for(
            "wakeup_with_s", n, k, /*s=*/0,
            [n, k, kind](util::Rng& rng) {
              return mac::patterns::generate(kind, n, k, 0, rng);
            });
        const auto result = sim::Run(cell, &bench::pool()).trials.finalize();
        const double bound = util::scenario_ab_bound(n, k);
        sink.cell(std::uint64_t{n})
            .cell(std::uint64_t{k})
            .cell(std::string(mac::patterns::kind_name(kind)))
            .cell(result.rounds.mean, 1)
            .cell(result.rounds.p95, 1)
            .cell(bound, 0)
            .cell(sim::normalized_mean(result, bound), 2)
            .cell(result.failures);
        sink.end_row();
      }
    }
  }
  sink.flush("T2: Scenario A (s known) — rounds vs Θ(k·log2(n/k) + 1)");
  std::cout << "Claim check: mean/bound stays within a constant band across k and n.\n";
  return 0;
}
