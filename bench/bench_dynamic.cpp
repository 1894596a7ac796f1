/// D — dynamic traffic: sustained-load slots/sec of the event-driven
/// dynamic interpreter vs the word-parallel still-backlogged batch engine.
///
/// The acceptance cell is round_robin at n = 2^14 under poisson traffic —
/// oblivious protocols run on the interpreter through per-packet runtimes,
/// which keep the default next_event and so pay a virtual transmits() per
/// backlogged station per slot, while the batch engine reads 64-slot
/// schedule words — gated at >= 3x.  The other batch cells show the win
/// across arrival shapes and the contended small-n regime where segments
/// with live transmitters bound the word-level fast path; a report-only
/// dense cell at the dynamic-throughput preset's shape (n = 256, k = 16,
/// horizon 2048, its heaviest Poisson point) has many tiles put back more
/// delivered rows than they have words, which restarts the tile ramp.  The
/// last rows are report-only interpreter rates of the per-packet
/// re-contenders at the same shape, which only the interpreter can run and
/// which visit only their event slots.
///
/// Usage: bench_dynamic [--quick]   (--quick shrinks horizons/trials for
/// CI-sized runs; the gate then applies to the shrunk cells)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wakeup;

namespace {

struct DynamicCell {
  std::string protocol;
  std::uint32_t n;
  std::uint32_t k;
  const char* arrival;
  mac::Slot horizon;
  std::uint64_t trials;
  bool gates = false;  ///< counts toward the acceptance check
};

struct DynamicStats {
  double slots_per_sec = 0;
  std::uint64_t delivered = 0;
};

DynamicStats measure(const proto::Protocol& protocol, bool batch, const DynamicCell& cell) {
  const mac::ArrivalSpec spec = mac::ArrivalSpec::parse(cell.arrival);
  std::uint64_t delivered = 0;
  std::uint64_t slots = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t trial = 0; trial < cell.trials; ++trial) {
    util::Rng rng(util::hash_words({0x44594eULL /* "DYN" */, trial}));
    const auto scenario = mac::arrivals::generate(spec, cell.n, cell.k, cell.horizon, rng);
    const auto result = batch ? sim::run_dynamic_batch(protocol, scenario)
                              : sim::run_dynamic_interpreter(protocol, scenario);
    delivered += result.delivered;
    slots += static_cast<std::uint64_t>(cell.horizon);
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  DynamicStats stats;
  stats.delivered = delivered;
  stats.slots_per_sec = elapsed.count() > 0 ? static_cast<double>(slots) / elapsed.count() : 0;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const mac::Slot horizon = quick ? 1 << 12 : 1 << 14;
  const std::uint64_t trials = quick ? 4 : 12;

  std::vector<DynamicCell> cells = {
      // The acceptance cell: big sparse universe, light memoryless load.
      {"round_robin", 1 << 14, 64, "poisson:0.2", horizon, trials, true},
      // Arrival-shape spread on the same universe.
      {"round_robin", 1 << 14, 64, "bursty:0.4:0.05", horizon, trials},
      {"round_robin", 1 << 14, 64, "pareto:1.5:0.2", horizon, trials},
      // Denser schedules: fewer idle words, the batch win narrows.
      {"wakeup_with_k", 4096, 64, "poisson:0.3", horizon, trials},
      // Contended small-n regime: every slot has live transmitters.
      {"wakeup_matrix", 512, 32, "poisson:0.6", horizon, trials},
      // Dense refills at the dynamic-throughput preset's shape.
      {"wakeup_with_k", 256, 16, "poisson:0.8", 2048, trials},
  };
  // Interpreter-only: the re-contenders at the dynamic-throughput preset's
  // shape, under its heaviest Poisson point and its bursty point.
  for (const char* name : {"binary_backoff", "slotted_aloha", "adaptive_cw"}) {
    for (const char* arrival : {"poisson:0.8", "bursty:0.4:0.05"}) {
      cells.push_back({name, 256, 16, arrival, 2048, trials});
    }
  }

  wakeup::bench::JsonReport json("dynamic");
  json.config("quick", quick);
  json.config("horizon", static_cast<std::uint64_t>(horizon));
  json.config("trials", trials);
  json.config("tile_words", std::uint64_t{sim::tile_words()});
  json.config("kernel", util::simd::active_name());

  bool verify_ok = true;
  double gated = 0;
  std::string gated_protocol;
  std::printf("%-14s %6s %4s %-16s | %13s %13s | %7s\n", "protocol", "n", "k", "arrival",
              "interp sl/s", "batch sl/s", "batch x");
  for (const auto& cell : cells) {
    proto::ProtocolSpec spec;
    spec.name = cell.protocol;
    spec.n = cell.n;
    spec.k = cell.k;
    spec.seed = 20130522;
    const auto protocol = proto::make_protocol_by_name(spec);

    if (!sim::dynamic_batch_supports(*protocol)) {
      const auto interp = measure(*protocol, /*batch=*/false, cell);
      std::printf("%-14s %6u %4u %-16s | %13.3e %13s | %7s\n", cell.protocol.c_str(), cell.n,
                  cell.k, cell.arrival, interp.slots_per_sec, "-", "-");
      json.row({{"protocol", cell.protocol},
                {"n", cell.n},
                {"k", cell.k},
                {"arrival", std::string(cell.arrival)},
                {"horizon", static_cast<std::uint64_t>(cell.horizon)},
                {"trials", cell.trials},
                {"interp_slots_per_sec", interp.slots_per_sec},
                {"delivered", interp.delivered},
                {"gated", false}});
      continue;
    }

    // Bit-identity on one trial before timing — a fast batch engine that
    // disagrees with the interpreter measures nothing.
    {
      util::Rng rng(util::hash_words({0x44594eULL, std::uint64_t{0}}));
      const auto scenario = mac::arrivals::generate(mac::ArrivalSpec::parse(cell.arrival),
                                                    cell.n, cell.k, cell.horizon, rng);
      const auto a = sim::run_dynamic_interpreter(*protocol, scenario);
      const auto b = sim::run_dynamic_batch(*protocol, scenario);
      if (!(a == b)) {
        std::printf("BIT-IDENTITY FAIL: %s %s\n", cell.protocol.c_str(), cell.arrival);
        verify_ok = false;
      }
    }

    const auto interp = measure(*protocol, /*batch=*/false, cell);
    const auto batch = measure(*protocol, /*batch=*/true, cell);
    const double speedup =
        interp.slots_per_sec > 0 ? batch.slots_per_sec / interp.slots_per_sec : 0;
    std::printf("%-14s %6u %4u %-16s | %13.3e %13.3e | %6.1fx\n", cell.protocol.c_str(), cell.n,
                cell.k, cell.arrival, interp.slots_per_sec, batch.slots_per_sec, speedup);
    if (cell.gates) {
      gated = speedup;
      gated_protocol = cell.protocol;
    }
    json.row({{"protocol", cell.protocol},
              {"n", cell.n},
              {"k", cell.k},
              {"arrival", std::string(cell.arrival)},
              {"horizon", static_cast<std::uint64_t>(cell.horizon)},
              {"trials", cell.trials},
              {"interp_slots_per_sec", interp.slots_per_sec},
              {"batch_slots_per_sec", batch.slots_per_sec},
              {"speedup", speedup},
              {"delivered", batch.delivered},
              {"gated", cell.gates}});
  }

  const bool accept_ok = gated >= 3.0;
  std::printf("\ngated speedup: %.2fx (%s at n=2^14 poisson; acceptance: >= 3x) %s\n", gated,
              gated_protocol.c_str(), accept_ok ? "PASS" : "FAIL");
  std::printf("bit-identity: %s\n", verify_ok ? "PASS" : "FAIL");
  json.config("gated_speedup", gated);
  json.config("acceptance_pass", accept_ok && verify_ok);
  json.write();
  return verify_ok && accept_ok ? 0 : 1;
}
