/// satellite_uplink — Scenario A in its natural habitat.
///
/// Ground terminals contend for a satellite uplink.  The satellite's beacon
/// broadcasts the frame start, so every terminal knows s — the paper's
/// Scenario A.  Terminals that saw the triggering event at the beacon edge
/// contend; `wakeup_with_s` lets the first of them through in
/// Θ(k log(n/k) + 1) slots, and we compare against just running round-robin
/// or the selective half alone to show why the interleaving matters.

#include <iostream>

#include "wakeup/wakeup.hpp"

int main() {
  using namespace wakeup;

  constexpr std::uint32_t n = 512;  // registered terminals
  constexpr std::uint64_t trials = 32;
  constexpr mac::Slot beacon = 100;  // globally known frame start

  util::ThreadPool pool(util::ThreadPool::default_workers());

  std::cout << "Satellite uplink: n=" << n << " terminals, beacon (known s) at slot "
            << beacon << ", " << trials << " trials per cell.\n\n";

  util::ConsoleTable table({"k", "wakeup_with_s", "satf alone", "round_robin", "bound"});

  for (std::uint32_t k : {2u, 8u, 32u, 128u, 512u}) {
    auto cell_for = [&](const std::string& name) {
      sim::RunSpec cell;
      cell.make_protocol = [&, name](std::uint64_t seed) {
        proto::ProtocolSpec spec;
        spec.name = name;
        spec.n = n;
        spec.k = k;
        spec.s = beacon;
        spec.seed = seed;
        return proto::make_protocol_by_name(spec);
      };
      cell.make_pattern = [&, k](util::Rng& rng) {
        // Everyone reacts to the same beacon: simultaneous at s.
        return mac::patterns::simultaneous(n, k, beacon, rng);
      };
      cell.trials = trials;
      cell.base_seed = 99;
      cell.cell_tag = k;
      return sim::Run(cell, &pool).trials.finalize();
    };

    const auto with_s = cell_for("wakeup_with_s");
    const auto satf = cell_for("select_among_the_first");
    const auto rr = cell_for("round_robin");
    table.cell(std::uint64_t{k})
        .cell(with_s.rounds.mean, 1)
        .cell(satf.rounds.mean, 1)
        .cell(rr.rounds.mean, 1)
        .cell(util::scenario_ab_bound(n, k), 0);
    table.end_row();
  }

  table.print(std::cout);
  std::cout << "\nReading: select_among_the_first wins for small k, round-robin for\n"
               "k near n; the interleaved wakeup_with_s is within 2x of the better\n"
               "of the two everywhere — that is the Θ(k log(n/k) + 1) optimality.\n";
  return 0;
}
