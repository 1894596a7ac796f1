/// T3 — Scenario B scaling: wakeup_with_k in Θ(k log(n/k) + 1).
///
/// Paper claim (§4): knowing only the bound k, interleaving round-robin
/// with wait_and_go achieves the same optimal Θ(k log(n/k) + 1) despite
/// arbitrary wake times — the wait-until-family-start rule freezes each
/// family's participant set.
///
/// Expected shape: mean/bound flat in k; robust across arrival shapes.

#include <iostream>

#include "bench_common.hpp"

using namespace wakeup;

int main() {
  sim::ResultsSink sink("t3_scenario_b", {"n", "k", "pattern", "mean rounds", "p95", "bound",
                                          "mean/bound", "failures"});

  for (std::uint32_t n : {256u, 1024u, 4096u}) {
    for (std::uint32_t k : {2u, 4u, 8u, 16u, 32u, 64u}) {
      if (k > n / 4) continue;
      for (const auto kind : {mac::patterns::Kind::kStaggered, mac::patterns::Kind::kBatched,
                              mac::patterns::Kind::kPoisson}) {
        auto cell = bench::cell_for(
            "wakeup_with_k", n, k, /*s=*/0,
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
  sink.flush("T3: Scenario B (k known) — rounds vs Θ(k·log2(n/k) + 1)");
  std::cout << "Claim check: mean/bound within a constant band; no pattern breaks it.\n";
  return 0;
}
