/// T6 — randomized bounds (§6).
///
/// Paper claims: RPD with ℓ = 2⌈log n⌉ wakes up in O(log n) expected time;
/// with k known and ℓ = 2⌈log k⌉ it achieves the optimal O(log k)
/// (Kushilevitz–Mansour lower bound Ω(log k)).
///
/// Expected shape: rpd_n mean scales with log n (flat in k); rpd_k mean
/// scales with log k (flat in n); ALOHA(1/k) is comparable for exact k but
/// depends on knowing it well.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"

using namespace wakeup;

int main() {
  sim::ResultsSink sink("t6_randomized", {"n", "k", "rpd_n mean", "rpd_n/log2(n)", "rpd_k mean",
                                          "rpd_k/log2(k)", "aloha mean", "backoff mean"});

  for (std::uint32_t n : {256u, 1024u, 4096u, 16384u}) {
    for (std::uint32_t k : {2u, 8u, 32u, 128u}) {
      auto pattern_gen = [n, k](util::Rng& rng) {
        return mac::patterns::simultaneous(n, k, 0, rng);
      };
      const auto rpdn = sim::Run(bench::cell_for("rpd_n", n, k, 0, pattern_gen, 48),
                                      &bench::pool()).trials.finalize();
      const auto rpdk = sim::Run(bench::cell_for("rpd_k", n, k, 0, pattern_gen, 48),
                                      &bench::pool()).trials.finalize();
      const auto aloha = sim::Run(bench::cell_for("slotted_aloha", n, k, 0, pattern_gen, 48),
                                       &bench::pool()).trials.finalize();
      const auto backoff = sim::Run(bench::cell_for("binary_backoff", n, k, 0, pattern_gen, 48),
                                    &bench::pool())
                               .trials.finalize();
      const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
      const double logk = std::max(1.0, std::log2(static_cast<double>(k)));
      sink.cell(std::uint64_t{n})
          .cell(std::uint64_t{k})
          .cell(rpdn.rounds.mean, 1)
          .cell(rpdn.rounds.mean / logn, 2)
          .cell(rpdk.rounds.mean, 1)
          .cell(rpdk.rounds.mean / logk, 2)
          .cell(aloha.rounds.mean, 1)
          .cell(backoff.rounds.mean, 1);
      sink.end_row();
    }
  }
  sink.flush("T6: randomized protocols — expected rounds vs log n / log k (§6)");
  std::cout << "Claim check: rpd_n/log2(n) and rpd_k/log2(k) stay in constant bands;\n"
               "rpd_k beats rpd_n whenever log k << log n.\n";
  return 0;
}
