/// T5 — the round-robin crossover (Corollary 2.1 and the interleaving
/// rationale of §3/§4).
///
/// Paper claim: for k > n/c the trivial round-robin (n - k + 1 rounds) is
/// asymptotically optimal, while the selective machinery wins for small k;
/// interleaving gets the best of both at a 2x cost.
///
/// Expected shape: "satf alone" grows with k while "round_robin" shrinks
/// as n - k + 1; they cross at a constant fraction of n, and
/// wakeup_with_s tracks min(2*RR, 2*SATF) throughout.

#include <iostream>

#include "bench_common.hpp"

using namespace wakeup;

int main() {
  const std::uint32_t n = 1024;
  sim::ResultsSink sink("t5_crossover", {"k", "round_robin", "satf alone", "wakeup_with_s",
                                         "wakeup_with_k", "n-k+1", "k·log(n/k)+1"});

  std::int64_t crossover_k = -1;
  double prev_rr = 0, prev_satf = 0;
  for (std::uint32_t k : {2u, 8u, 32u, 64u, 128u, 256u, 384u, 512u, 640u, 768u, 896u, 1008u}) {
    auto pattern_gen = [k](util::Rng& rng) {
      return mac::patterns::simultaneous(n, k, 0, rng);
    };
    const auto rr = sim::Run(bench::cell_for("round_robin", n, k, 0, pattern_gen, 12),
                                  &bench::pool()).trials.finalize();
    const auto satf = sim::Run(bench::cell_for("select_among_the_first", n, k, 0, pattern_gen, 12),
                               &bench::pool())
                          .trials.finalize();
    const auto ws = sim::Run(bench::cell_for("wakeup_with_s", n, k, 0, pattern_gen, 12),
                                  &bench::pool()).trials.finalize();
    const auto wk = sim::Run(bench::cell_for("wakeup_with_k", n, k, 0, pattern_gen, 12),
                                  &bench::pool()).trials.finalize();
    sink.cell(std::uint64_t{k})
        .cell(rr.rounds.mean, 1)
        .cell(satf.rounds.mean, 1)
        .cell(ws.rounds.mean, 1)
        .cell(wk.rounds.mean, 1)
        .cell(std::uint64_t{n - k + 1})
        .cell(util::scenario_ab_bound(n, k), 0);
    sink.end_row();
    if (crossover_k < 0 && prev_satf > 0 && satf.rounds.mean > rr.rounds.mean &&
        prev_satf <= prev_rr) {
      crossover_k = k;
    }
    prev_rr = rr.rounds.mean;
    prev_satf = satf.rounds.mean;
  }
  sink.flush("T5: round-robin vs selective machinery — crossover in k (n = 1024)");
  if (crossover_k > 0) {
    std::cout << "Measured crossover near k = " << crossover_k << " (= n/"
              << (n / static_cast<double>(crossover_k)) << ").\n";
  }
  std::cout << "Claim check: RR tracks n-k+1; selective tracks k·log(n/k); the\n"
               "interleaved algorithms stay within ~2x of the better half everywhere.\n";
  return 0;
}
