/// sensor_field — sensors waking to report one shared event.
///
/// Battery-powered sensors sleep almost always; an environmental trigger
/// (a tremor, say) is detected by every nearby sensor within a few slots,
/// and the network is up the moment ANY one of them pushes its report
/// through the shared radio channel.  Nobody knows how many sensors woke
/// (k unknown) or when the event fired (s unknown) — exactly the paper's
/// Scenario C, under real contention: the detections are nearly
/// simultaneous.
///
/// We sweep the burst size and show how the waking-matrix protocol's cost
/// scales with the (unknown!) contention k, tracking k log n log log n.

#include <iostream>

#include "wakeup/wakeup.hpp"

int main() {
  using namespace wakeup;

  constexpr std::uint32_t n = 4096;  // deployed sensors
  constexpr std::uint64_t trials = 24;

  util::ThreadPool pool(util::ThreadPool::default_workers());
  util::ConsoleTable table(
      {"k (awake)", "mean rounds", "bound k·logn·loglogn", "mean/bound", "p95/bound"});

  for (std::uint32_t k : {8u, 32u, 64u, 128u, 256u, 512u}) {
    sim::RunSpec cell;
    cell.make_protocol = [&](std::uint64_t seed) {
      core::SolverOptions options;
      options.seed = seed;
      return core::make_protocol(core::ProblemSpec{.n = n}, options);  // Scenario C
    };
    cell.make_pattern = [&, k](util::Rng& rng) {
      // All detections land within a 4-slot window of the event.
      return mac::patterns::uniform_window(n, k, /*s=*/0, /*window=*/4, rng);
    };
    cell.trials = trials;
    cell.base_seed = 4242;
    cell.cell_tag = k;
    const auto result = sim::Run(cell, &pool).trials.finalize();

    const double bound = util::scenario_c_bound(n, k);
    table.cell(std::uint64_t{k})
        .cell(result.rounds.mean, 1)
        .cell(bound, 0)
        .cell(result.rounds.mean / bound, 3)
        .cell(result.rounds.p95 / bound, 3);
    table.end_row();
  }

  std::cout << "Sensor field event report: n=" << n
            << " sensors, detections within a 4-slot burst, " << trials
            << " trials per row.\nScenario C — stations know only n.\n\n";
  table.print(std::cout);
  std::cout << "\nReading: mean/bound staying in a constant band while k grows 64x is\n"
               "Theorem 5.3's O(k log n log log n) visible in simulation.\n";
  return 0;
}
