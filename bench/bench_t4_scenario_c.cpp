/// T4 — Scenario C scaling: wakeup(n) in O(k log n log log n).
///
/// Paper claim (Theorem 5.3): with no knowledge of s or k, the
/// waking-matrix protocol wakes up within O(k log n log log n) rounds.
///
/// The bound is a worst case over wake patterns; spread-out arrivals let an
/// early lone station win in O(1), so the k-scaling only shows under
/// *contended* patterns.  We sweep simultaneous wake-ups (all k at s) and
/// tight bursts, and fit mean rounds against the bound on the simultaneous
/// cells.
///
/// Expected shape: mean rounds grows with k (simultaneous), the ratio
/// mean / (k log2 n log2 log2 n) stays in a constant band, and the linear
/// fit on simultaneous cells has a small constant slope with high R².

#include <iostream>

#include "bench_common.hpp"

using namespace wakeup;

int main() {
  sim::ResultsSink sink("t4_scenario_c", {"n", "k", "pattern", "mean rounds", "p95", "bound",
                                          "mean/bound", "failures"});

  std::vector<double> xs, ys;
  for (std::uint32_t n : {256u, 1024u, 4096u}) {
    // The rho-discount lets low rows isolate small groups in O(1) windows,
    // so the k-linear regime starts around k ~ 2^window; sweep well past it.
    for (std::uint32_t k : {1u, 4u, 16u, 64u, 128u, 256u, 512u}) {
      if (k > n / 2) continue;
      struct PatternCase {
        const char* label;
        std::function<mac::WakePattern(util::Rng&)> gen;
      };
      const mac::Slot tight = std::max<mac::Slot>(2, static_cast<mac::Slot>(k) / 4);
      const std::vector<PatternCase> cases = {
          {"simultaneous",
           [n, k](util::Rng& rng) { return mac::patterns::simultaneous(n, k, 0, rng); }},
          {"tight_uniform",
           [n, k, tight](util::Rng& rng) {
             return mac::patterns::uniform_window(n, k, 0, tight, rng);
           }},
          {"burst_pair",
           [n, k](util::Rng& rng) {
             return mac::patterns::batched(n, k, 0, /*batches=*/2, /*gap=*/2, rng);
           }},
      };
      for (const auto& pattern_case : cases) {
        auto cell = bench::cell_for("wakeup_matrix", n, k, /*s=*/0, pattern_case.gen,
                                    /*trials=*/k >= 128 ? 10 : 16);
        cell.cell_tag = util::hash_words({n, k, util::mix64(pattern_case.label[0])});
        const auto result = sim::Run(cell, &bench::pool()).trials.finalize();
        const double bound = util::scenario_c_bound(n, k);
        if (std::string(pattern_case.label) == "simultaneous") {
          xs.push_back(bound);
          ys.push_back(result.rounds.mean);
        }
        sink.cell(std::uint64_t{n})
            .cell(std::uint64_t{k})
            .cell(pattern_case.label)
            .cell(result.rounds.mean, 1)
            .cell(result.rounds.p95, 1)
            .cell(bound, 0)
            .cell(sim::normalized_mean(result, bound), 3)
            .cell(result.failures);
        sink.end_row();
      }
    }
  }
  sink.flush("T4: Scenario C (no knowledge) — rounds vs O(k·log2 n·log2 log2 n)");

  const auto fit = util::LinearFit::of(xs, ys);
  std::cout << "Linear fit (simultaneous cells) rounds ~ bound: slope=" << fit.slope
            << "  intercept=" << fit.intercept << "  R^2=" << fit.r2 << "\n"
            << "Claim check: slope is a small constant and R^2 is high — worst-case\n"
            << "cost tracks k log n log log n, Theorem 5.3's shape.\n";
  return 0;
}
