/// I — channel impairments: overhead of the per-word impairment fold on
/// the static batch hot path.
///
/// Every batch engine applies a realized ImpairmentPlan as one extra
/// AND/XOR per 64-slot word after each OR-reduction; the acceptance gate
/// says an impaired run may cost at most 10% per-slot throughput vs the
/// clean twin.  Plans are compiled outside the timed region, but a plan
/// realizes its words on first read: the first impaired rep also draws the
/// words its trials read, and the later reps reuse the plans and time the
/// fold alone (the gate takes the best rep).  Each cell first checks
/// interpreter ≡ batch bit-identity under the impairment — a fast fold
/// that disagrees with the reference loop measures nothing.
///
/// Usage: bench_impairment [--quick]   (--quick shrinks trials/budgets for
/// CI-sized runs; the gate then applies to the shrunk cells)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/impairment_engine.hpp"

using namespace wakeup;

namespace {

struct ImpairmentCell {
  std::string protocol;
  std::uint32_t n;
  std::uint32_t k;
  const char* impairment;
  std::uint64_t trials;
  bool gates = false;  ///< counts toward the acceptance check
};

/// Per-slot throughput of the batch engine over the cell's trials; best of
/// `reps` repetitions so scheduler noise cannot fail the gate.  `plans[i]`
/// nullptr runs the clean channel.
double measure(const proto::Protocol& protocol, const std::vector<mac::WakePattern>& patterns,
               const std::vector<const sim::ImpairmentPlan*>& plans, const sim::SimConfig& base,
               int reps) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t slots = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      sim::SimConfig config = base;
      config.impairment = plans[i];
      const sim::SimResult result = sim::dispatch_wakeup(protocol, patterns[i], config);
      slots += static_cast<std::uint64_t>(
          result.success ? result.rounds + 1 : base.max_slots);
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    const double rate =
        elapsed.count() > 0 ? static_cast<double>(slots) / elapsed.count() : 0;
    if (rate > best) best = rate;
  }
  return best;
}

bool same(const sim::SimResult& a, const sim::SimResult& b) {
  return a.success == b.success && a.s == b.s && a.success_slot == b.success_slot &&
         a.rounds == b.rounds && a.winner == b.winner && a.silences == b.silences &&
         a.collisions == b.collisions && a.successes == b.successes;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t trials = quick ? 6 : 16;
  const mac::Slot budget = quick ? 1 << 13 : 1 << 15;
  const int reps = 3;

  const std::vector<ImpairmentCell> cells = {
      // The acceptance cell: cheap-words TDM schedule — the fold is the
      // largest relative cost where the schedule words are nearly free.
      {"round_robin", 4096, 64, "noise:iid:0.02+jam:budget:32:random", trials, true},
      {"robust_rr", 1024, 16, "noise:iid:0.05", trials, true},
      // Selective-family protocol: fold cost amortized against real
      // schedule-word work.
      {"wakeup_with_k", 4096, 64, "jam:budget:64:spread", trials},
      {"wakeup_with_k", 4096, 64, "noise:bursty:0.1:0.2", trials},
  };

  wakeup::bench::JsonReport json("impairment");
  json.config("quick", quick);
  json.config("trials", trials);
  json.config("budget", static_cast<std::uint64_t>(budget));
  json.config("tile_words", std::uint64_t{sim::tile_words()});
  json.config("kernel", util::simd::active_name());

  bool verify_ok = true;
  double worst_overhead = 0;
  std::printf("%-14s %5s %3s %-32s | %12s %12s | %8s\n", "protocol", "n", "k", "impairment",
              "clean sl/s", "impaired", "overhead");
  for (const auto& cell : cells) {
    proto::ProtocolSpec pspec;
    pspec.name = cell.protocol;
    pspec.n = cell.n;
    pspec.k = cell.k;
    pspec.seed = 20130522;
    const auto protocol = proto::make_protocol_by_name(pspec);
    const mac::ImpairmentSpec impairment = mac::ImpairmentSpec::parse(cell.impairment);

    sim::SimConfig config;
    config.max_slots = budget;
    config.engine = sim::Engine::kBatch;

    // Patterns and compiled plans, fixed across the clean/impaired timings.
    std::vector<mac::WakePattern> patterns;
    std::vector<sim::ImpairmentPlan> plans;
    patterns.reserve(cell.trials);
    plans.reserve(cell.trials);
    for (std::uint64_t i = 0; i < cell.trials; ++i) {
      util::Rng rng(util::hash_words({0x494d50ULL /* "IMP" */, i}));
      patterns.push_back(mac::patterns::generate(mac::patterns::Kind::kUniform, cell.n,
                                                 cell.k, 0, rng));
      plans.push_back(sim::compile_impairment(impairment, rng.seed(),
                                              patterns.back().first_wake() + budget));
    }
    std::vector<const sim::ImpairmentPlan*> clean(cell.trials, nullptr);
    std::vector<const sim::ImpairmentPlan*> impaired;
    for (const auto& plan : plans) impaired.push_back(&plan);

    // Bit-identity under the impairment before timing.
    {
      sim::SimConfig check = config;
      check.impairment = &plans.front();
      check.engine = sim::Engine::kBatch;
      const sim::SimResult b = sim::dispatch_wakeup(*protocol, patterns.front(), check);
      check.engine = sim::Engine::kInterpreter;
      const sim::SimResult a = sim::dispatch_wakeup(*protocol, patterns.front(), check);
      if (!same(a, b)) {
        std::printf("BIT-IDENTITY FAIL: %s %s\n", cell.protocol.c_str(), cell.impairment);
        verify_ok = false;
      }
    }

    const double clean_rate = measure(*protocol, patterns, clean, config, reps);
    const double impaired_rate = measure(*protocol, patterns, impaired, config, reps);
    const double overhead = clean_rate > 0 ? clean_rate / impaired_rate - 1.0 : 0.0;
    std::printf("%-14s %5u %3u %-32s | %12.3e %12.3e | %+7.1f%%\n", cell.protocol.c_str(),
                cell.n, cell.k, cell.impairment, clean_rate, impaired_rate, overhead * 100);
    if (cell.gates && overhead > worst_overhead) worst_overhead = overhead;
    json.row({{"protocol", cell.protocol},
              {"n", cell.n},
              {"k", cell.k},
              {"impairment", std::string(cell.impairment)},
              {"trials", cell.trials},
              {"clean_slots_per_sec", clean_rate},
              {"impaired_slots_per_sec", impaired_rate},
              {"overhead", overhead},
              {"gated", cell.gates}});
  }

  const bool accept_ok = worst_overhead <= 0.10;
  std::printf("\nworst gated overhead: %.1f%% (acceptance: <= 10%%) %s\n",
              worst_overhead * 100, accept_ok ? "PASS" : "FAIL");
  std::printf("bit-identity: %s\n", verify_ok ? "PASS" : "FAIL");
  json.config("worst_overhead", worst_overhead);
  json.config("acceptance_pass", accept_ok && verify_ok);
  json.write();
  return verify_ok && accept_ok ? 0 : 1;
}
