/// ethernet_burst — sustained bursty frame traffic on a shared segment.
///
/// The classic LAN story the paper's introduction motivates: hosts on one
/// shared medium carry correlated on/off traffic — a switch reboot, a
/// backup window — and every frame must win the channel.  The dynamic
/// layer (mac::ArrivalSpec + sim::Run with a horizon) models exactly that:
/// per-host FIFO queues under a bursty arrival stream, hosts re-contending
/// per frame.  We compare the paper's deterministic protocols with the
/// classic adaptive re-contenders on identical traffic and report
/// sustained throughput, queue-latency tails, and Jain's fairness.

#include <iostream>

#include "wakeup/wakeup.hpp"

int main() {
  using namespace wakeup;

  constexpr std::uint32_t n = 1024;        // addressable hosts
  constexpr std::uint32_t k = 24;          // hosts with traffic
  constexpr mac::Slot horizon = 4096;      // slots per trial
  constexpr std::uint64_t trials = 40;

  util::ThreadPool pool(util::ThreadPool::default_workers());
  util::ConsoleTable table(
      {"protocol", "throughput", "latency p50", "latency p99", "jain", "backlog/trial"});

  for (const std::string name :
       {"wakeup_with_k", "wakeup_matrix", "round_robin", "binary_backoff", "slotted_aloha",
        "adaptive_cw"}) {
    sim::RunSpec cell;
    cell.make_protocol = [&, name](std::uint64_t seed) {
      proto::ProtocolSpec spec;
      spec.name = name;
      spec.n = n;
      spec.k = k;
      spec.seed = seed;
      return proto::make_protocol_by_name(spec);
    };
    // Offered load 0.35 frames/slot across the k hosts, on/off modulated
    // with 2% switch probability: long quiet stretches, then pile-ups.
    cell.arrival = mac::ArrivalSpec::parse("bursty:0.35:0.02");
    cell.horizon = horizon;
    cell.dynamic_n = n;
    cell.dynamic_k = k;
    cell.trials = trials;
    cell.base_seed = 777;
    const auto result = sim::Run(cell, &pool).trials.finalize();
    table.cell(name)
        .cell(result.throughput.mean, 3)
        .cell(result.latency.median, 1)
        .cell(result.latency.p99, 1)
        .cell(result.jain.mean, 3)
        .cell(static_cast<double>(result.backlog) / static_cast<double>(trials), 1);
    table.end_row();
  }

  std::cout << "Ethernet-style sustained burst traffic: n=" << n << ", k=" << k
            << ", horizon=" << horizon << " slots, " << trials
            << " trials, bursty:0.35:0.02 arrivals\n\n";
  table.print(std::cout);
  std::cout << "\nReading: the deterministic schedules drain every burst at their\n"
               "O(k log(n/k))-ish per-frame cost and split the channel evenly (Jain ~1);\n"
               "the adaptive re-contenders ride light load with shorter queues but grow\n"
               "heavier p99 tails when a burst piles the queues up; round-robin's fixed\n"
               "~n-slot cycle caps throughput at k/n of the channel under load.\n";
  return 0;
}
