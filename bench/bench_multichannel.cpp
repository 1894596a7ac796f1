/// M — native multichannel batching: C-lane word-parallel cells vs the
/// per-slot resolve_multi_slot loop.
///
/// Sweeps C in {1, 4, 16, 64} for the three strategies that reach the
/// batch engine — striped round-robin and group wait_and_go natively, and
/// the channel-0 adapter baseline (whose kAuto path rides the
/// single-channel engine stack) — reporting interpreted vs batched cell
/// throughput (trials/s) and the C-fold TDM speedup in mean rounds.
///
/// Acceptance (ISSUE 3): batched striped round-robin at n = 2^14, C = 16
/// sustains >= 3x the interpreted cell throughput; per-trial results are
/// verified bit-identical in-run (and by tests/test_mc_engine_equivalence
/// across all strategies).
///
/// Usage: bench_multichannel [--quick]  (--quick shrinks trial counts)

#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wakeup;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Timed {
  sim::CellStats cell;
  double per_trial_s = 0;
};

Timed timed_cell(const proto::McProtocol& protocol, std::uint32_t n, std::uint32_t k,
                 std::uint64_t trials, sim::Engine engine,
                 std::vector<sim::McSimResult>* per_trial) {
  sim::RunSpec spec;
  spec.mc_protocol = &protocol;
  spec.make_pattern = [n, k](util::Rng& rng) {
    return mac::patterns::simultaneous(n, k, 0, rng);
  };
  spec.trials = trials;
  spec.base_seed = 20130522;
  // No channel term: cells across C share the same trial patterns, so the
  // tdm_vs_c1 column compares like with like.
  spec.cell_tag = util::hash_words({n, k});
  spec.sim.engine = engine;
  if (per_trial != nullptr) {
    per_trial->assign(trials, {});
    spec.per_trial_mc = [per_trial](std::uint64_t i, const sim::McSimResult& r) {
      (*per_trial)[i] = r;
    };
  }
  Timed out;
  const auto start = std::chrono::steady_clock::now();
  out.cell = sim::Run(spec, &bench::pool()).trials.finalize();
  out.per_trial_s = seconds_since(start) / static_cast<double>(trials);
  return out;
}

bool identical(const std::vector<sim::McSimResult>& a,
               const std::vector<sim::McSimResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].success != b[i].success || a[i].success_slot != b[i].success_slot ||
        a[i].rounds != b[i].rounds || a[i].success_channel != b[i].success_channel ||
        a[i].winner != b[i].winner || a[i].silences != b[i].silences ||
        a[i].collisions != b[i].collisions || a[i].successes != b[i].successes) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint32_t n = 1 << 14;
  const std::uint32_t k = 8;       // sparse: long TDM runs, the batch regime
  const std::uint32_t k_wag = 64;  // contended: group wait_and_go's regime
  const std::uint64_t trials = quick ? 8 : 24;

  sim::ResultsSink sink("m_multichannel",
                        {"strategy", "channels", "interp_tr_s", "batch_tr_s", "speedup",
                         "mean_rounds", "tdm_vs_c1"});
  bench::JsonReport json("multichannel");
  json.config("n", n);
  json.config("trials", trials);
  json.config("quick", quick);
  json.config("tile_words", std::uint64_t{sim::tile_words()});
  json.config("kernel", util::simd::active_name());

  bool verify_ok = true;
  double gate_speedup = 0;
  for (const char* const strategy_name : {"striped_rr", "group_wag", "adapter"}) {
    const std::string strategy(strategy_name);
    double rounds_c1 = 0;
    for (const std::uint32_t channels : {1u, 4u, 16u, 64u}) {
      const std::uint32_t cell_k = strategy == "group_wag" ? k_wag : k;
      proto::McProtocolPtr protocol;
      if (strategy == "striped_rr") {
        protocol = proto::make_striped_round_robin(n, channels);
      } else if (strategy == "group_wag") {
        protocol = proto::make_group_wait_and_go(n, cell_k, channels,
                                                 comb::FamilyKind::kRandomized, 7);
      } else {
        protocol = proto::make_single_channel_adapter(
            proto::make_wait_and_go(n, cell_k, comb::FamilyKind::kRandomized, 7), channels);
      }

      std::vector<sim::McSimResult> interp_results, batch_results;
      const Timed interp =
          timed_cell(*protocol, n, cell_k, trials, sim::Engine::kInterpreter, &interp_results);
      // kAuto: native strategies take the C-lane batch engine; the adapter
      // rides the single-channel stack — that IS its fast path.
      const Timed batch =
          timed_cell(*protocol, n, cell_k, trials, sim::Engine::kAuto, &batch_results);
      verify_ok = verify_ok && identical(interp_results, batch_results);

      const double speedup =
          batch.per_trial_s > 0 ? interp.per_trial_s / batch.per_trial_s : 0;
      const double mean_rounds = batch.cell.rounds.mean;
      if (channels == 1) rounds_c1 = mean_rounds;
      if (strategy == "striped_rr" && channels == 16) gate_speedup = speedup;

      sink.cell(strategy)
          .cell(std::uint64_t{channels})
          .cell(1.0 / interp.per_trial_s, 1)
          .cell(1.0 / batch.per_trial_s, 1)
          .cell(speedup, 1)
          .cell(mean_rounds, 1)
          .cell(mean_rounds > 0 ? rounds_c1 / mean_rounds : 0, 1);
      sink.end_row();
      json.row({{"strategy", strategy},
                {"channels", channels},
                {"k", cell_k},
                {"interp_trials_per_sec", 1.0 / interp.per_trial_s},
                {"throughput_trials_per_sec", 1.0 / batch.per_trial_s},
                {"speedup", speedup},
                {"mean_rounds", mean_rounds},
                {"tdm_vs_c1", mean_rounds > 0 ? rounds_c1 / mean_rounds : 0.0}});
    }
  }
  sink.flush("M: native multichannel batching — cell throughput, batched vs slot loop "
             "(n=2^14; k=8, group_wag k=64)");

  const bool gate_ok = gate_speedup >= 3.0;
  json.config("acceptance_pass", gate_ok && verify_ok);
  json.write();
  std::cout << "striped_rr C=16 batched/interpreted: " << gate_speedup
            << "x (acceptance: >= 3x) " << (gate_ok ? "PASS" : "FAIL") << "\n"
            << "bit-identity: " << (verify_ok ? "PASS" : "FAIL") << "\n"
            << "Claim check: striped RR keeps the C-fold TDM speedup in rounds while the\n"
             "C-lane OR/ctz reduction removes the per-slot resolve_multi_slot cost;\n"
             "group wait_and_go cuts per-channel contention ~k/C on the same engine.\n";
  return gate_ok && verify_ok ? 0 : 1;
}
