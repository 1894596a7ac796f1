/// adversarial_audit — stress a protocol the way the lower bounds do.
///
/// Two adversaries from the paper's §2, turned into tools:
///   1. the Theorem 2.1 element-swap game (simultaneous start), which
///      forces ANY correct protocol to spend >= min{k, n-k+1} rounds;
///   2. a stochastic search over wake patterns for the dynamic setting.
/// Point them at a protocol of your choice and see how much worse than its
/// average case an adversary can make it.

#include <iostream>
#include <string>

#include "wakeup/wakeup.hpp"

int main(int argc, char** argv) {
  using namespace wakeup;

  const std::string target = argc > 1 ? argv[1] : "wakeup_matrix";
  constexpr std::uint32_t n = 128;

  std::cout << "Adversarial audit of '" << target << "' (n=" << n << ")\n\n";

  // --- Theorem 2.1 swap game -------------------------------------------
  util::ConsoleTable game({"k", "min{k,n-k+1}", "rounds forced", "swaps"});
  for (std::uint32_t k : {2u, 8u, 32u, 64u, 120u}) {
    proto::ProtocolSpec spec;
    spec.name = target;
    spec.n = n;
    spec.k = k;
    spec.s = 0;
    spec.seed = 7;
    const auto protocol = proto::make_protocol_by_name(spec);
    const auto result = sim::run_swap_adversary(*protocol, n, k);
    game.cell(std::uint64_t{k})
        .cell(result.bound)
        .cell(result.rounds_forced)
        .cell(std::uint64_t{result.swaps});
    game.end_row();
  }
  std::cout << "Theorem 2.1 element-swap game (all stations start at 0):\n";
  game.print(std::cout);
  std::cout << "\n";

  // --- worst-pattern search --------------------------------------------
  util::ConsoleTable search_table({"k", "typical rounds", "worst found", "ratio"});
  for (std::uint32_t k : {4u, 8u, 16u}) {
    auto factory = [&](std::uint64_t seed) {
      proto::ProtocolSpec spec;
      spec.name = target;
      spec.n = n;
      spec.k = k;
      spec.s = 0;
      spec.seed = seed;
      return proto::make_protocol_by_name(spec);
    };

    // Typical: mean over uniform patterns.
    sim::RunSpec cell;
    cell.make_protocol = factory;
    cell.make_pattern = [&, k](util::Rng& rng) {
      return mac::patterns::uniform_window(n, k, 0, 4 * static_cast<mac::Slot>(k), rng);
    };
    cell.trials = 16;
    cell.base_seed = 5;
    const auto typical = sim::Run(cell, nullptr).trials.finalize();

    const auto worst =
        sim::search_worst_pattern(factory, n, k, /*restarts=*/6, /*steps=*/40, /*seed=*/11, {});
    const double ratio = typical.rounds.mean > 0
                             ? static_cast<double>(worst.worst_result.rounds) / typical.rounds.mean
                             : 0.0;
    search_table.cell(std::uint64_t{k})
        .cell(typical.rounds.mean, 1)
        .cell(worst.worst_result.rounds)
        .cell(ratio, 2);
    search_table.end_row();
  }
  std::cout << "Stochastic worst-pattern search (dynamic arrivals):\n";
  search_table.print(std::cout);
  std::cout << "\nTry: " << (argc > 0 ? argv[0] : "adversarial_audit")
            << " <protocol>   with protocol one of:\n  ";
  for (const auto& name : proto::protocol_names()) std::cout << name << ' ';
  std::cout << "\n";
  return 0;
}
