/// X — full conflict resolution extension (the Komlós–Greenberg setting the
/// paper's related work starts from).
///
/// Beyond the first solo transmission, run until EVERY awake station has
/// transmitted alone (winners leave the channel).  Compares the paper's
/// Scenario B schedule, round-robin, RPD, and the collision-detection
/// tree-splitting adaptive protocol.
///
/// Expected shape: RR completes in <= n slots always; tree splitting (with
/// CD) in O(k); the oblivious selective schedule pays roughly its wake-up
/// cost per departure.

#include <iostream>

#include "bench_common.hpp"

using namespace wakeup;

int main() {
  const std::uint32_t n = 512;
  sim::ResultsSink sink("x_full_resolution",
                        {"protocol", "k", "mean completion", "p95", "per-station", "failures"});

  for (const std::string name : {"round_robin", "wakeup_with_k", "rpd_k", "tree_splitting"}) {
    for (std::uint32_t k : {4u, 16u, 64u}) {
      auto cell = bench::cell_for(name, n, k, 0,
                                  [k](util::Rng& rng) {
                                    return mac::patterns::simultaneous(n, k, 0, rng);
                                  },
                                  /*trials=*/12);
      cell.sim.full_resolution = true;
      cell.sim.max_slots = static_cast<mac::Slot>(n) * static_cast<mac::Slot>(k) * 64 + 4096;
      proto::ProtocolSpec probe;
      probe.name = name;
      probe.n = n;
      probe.k = k;
      const bool needs_cd =
          proto::make_protocol_by_name(probe)->requirements().needs_collision_detection;
      cell.sim.feedback =
          needs_cd ? mac::FeedbackModel::kCollisionDetection : mac::FeedbackModel::kNone;
      const auto result = sim::Run(cell, &bench::pool()).trials.finalize();
      sink.cell(name)
          .cell(std::uint64_t{k})
          .cell(result.completion.mean, 1)
          .cell(result.completion.p95, 1)
          .cell(k > 0 ? result.completion.mean / k : 0.0, 2)
          .cell(result.failures);
      sink.end_row();
    }
  }
  sink.flush("X: full conflict resolution (all k must transmit alone), n = 512");
  std::cout << "Claim check: RR completes within n slots; tree splitting (CD) scales\n"
               "linearly in k with a small constant; oblivious schedules pay more —\n"
               "the gap collision detection buys (Greenberg–Winograd context).\n";
  return 0;
}
