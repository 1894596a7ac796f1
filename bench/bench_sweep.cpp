/// S1 — sweep orchestration: runner overhead, sharding, worker scaling.
///
/// The subsystem claim: `exp::run_sweep` adds negligible cost over a
/// hand-rolled loop of `sim::Run` cells (the PR-4 state of the art), while
/// giving grids declarative specs, a resumable manifest, CIs, and cell
/// sharding.  Measured here:
///   * 1/2/4-process worker fleets vs a single-process run on the 96-cell
///     scenario-b acceptance grid — the multi-process scale-out path.
///     Gates: claim-ledger + merge overhead (1 worker vs classic) <= 5%,
///     and >= 1.6x at 2 workers when the host has >= 2 cores (reported
///     otherwise: single-core CI runs this too).  Fleet reports must be
///     byte-identical to the single-process run.
///   * hand-rolled loop vs run_sweep (trial-sharded) on the same grid —
///     the orchestration overhead, acceptance <= 15%;
///   * run_sweep cell-sharded vs inline — the composition speedup on
///     multi-core hosts (reported, not gated).
/// Bit-identity of the sharding modes and of every fleet report is
/// asserted in-run, mirroring the SimdMatrix bench contract.  The fleet legs run FIRST: `run_sweep_fleet` forks, and the
/// process must not have spawned pool threads yet.

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "exp/presets.hpp"

using namespace wakeup;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

exp::SweepSpec bench_spec(bool quick) {
  exp::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_with_k", "wait_and_go"};
  spec.ns = quick ? std::vector<std::uint32_t>{1u << 10}
                  : std::vector<std::uint32_t>{1u << 10, 1u << 12};
  spec.ks = {8, 32};
  spec.patterns = {exp::PatternKind::kStaggered};
  spec.trials = quick ? 32 : 96;
  spec.base_seed = 20130522;
  return spec;
}

std::string out_dir(const std::string& leg) {
  const auto dir = std::filesystem::temp_directory_path() / ("bench_sweep_" + leg);
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  // ---- worker scaling: 1/2/4-process fleets on the scenario-b grid ------
  // This block runs before anything touches bench::pool(): run_sweep_fleet
  // forks its workers, and fork() carries only the calling thread.
  // The acceptance cells are microseconds each on the lazy-word engine, so
  // raise the trial count until per-cell work dominates the fork + ledger +
  // merge fixed costs; otherwise the percentage gates measure noise.
  exp::SweepSpec fleet_spec = exp::make_preset("figure-scenario-b");
  fleet_spec.trials = quick ? 96 : 4096;
  const auto fleet_cells = exp::expand(fleet_spec);

  util::ThreadPool inline_pool(0);  // threadless: keeps the baseline fork-safe
  exp::SweepOptions single;
  single.out_dir = out_dir("single");
  single.ci_resamples = 0;
  single.pool = &inline_pool;
  const auto f0 = std::chrono::steady_clock::now();
  const auto single_outcome = exp::run_sweep(fleet_spec, single);
  const double single_s = seconds_since(f0);
  const std::string single_csv = slurp(single_outcome.csv_path);
  const std::string single_json = slurp(single_outcome.json_path);

  struct FleetLeg {
    std::uint32_t workers;
    double seconds = 0.0;
    bool identical = false;
  };
  std::vector<FleetLeg> fleet = {{1}, {2}, {4}};
  for (FleetLeg& leg : fleet) {
    exp::SweepOptions options;
    options.out_dir = out_dir("fleet" + std::to_string(leg.workers));
    options.ci_resamples = 0;
    const auto t = std::chrono::steady_clock::now();
    const auto outcome = exp::run_sweep_fleet(fleet_spec, options, leg.workers, 0);
    leg.seconds = seconds_since(t);
    leg.identical = outcome.completed && slurp(outcome.csv_path) == single_csv &&
                    slurp(outcome.json_path) == single_json;
  }
  const double fleet_overhead = single_s > 0 ? fleet[0].seconds / single_s - 1.0 : 0.0;
  const double speedup2 = fleet[1].seconds > 0 ? single_s / fleet[1].seconds : 0.0;
  const double speedup4 = fleet[2].seconds > 0 ? single_s / fleet[2].seconds : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();

  const exp::SweepSpec spec = bench_spec(quick);
  const auto cells = exp::expand(spec);

  // Baseline: the hand-rolled loop every multi-cell experiment used before
  // this subsystem — one sim::Run per cell, aggregate discarded.
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& cell : cells) {
    auto run = bench::cell_for(cell.protocol, cell.n, cell.k, cell.s,
                               [&cell](util::Rng& rng) {
                                 return mac::patterns::generate(
                                     exp::generator_kind(cell.pattern), cell.n, cell.k, cell.s,
                                     rng);
                               },
                               cell.trials, spec.base_seed);
    run.cell_tag = cell.tag_hash;
    (void)sim::Run(run, &bench::pool());
  }
  const double hand_s = seconds_since(t0);

  exp::SweepOptions trial_sharded;
  trial_sharded.out_dir = out_dir("trials");
  trial_sharded.sharding = exp::Sharding::kTrials;
  trial_sharded.ci_resamples = 0;  // measure orchestration, not bootstrap math
  const auto t1 = std::chrono::steady_clock::now();
  const auto trials_outcome = exp::run_sweep(spec, trial_sharded);
  const double trials_s = seconds_since(t1);

  exp::SweepOptions cell_sharded;
  cell_sharded.out_dir = out_dir("cells");
  cell_sharded.sharding = exp::Sharding::kCells;
  cell_sharded.ci_resamples = 0;
  const auto t2 = std::chrono::steady_clock::now();
  const auto cells_outcome = exp::run_sweep(spec, cell_sharded);
  const double cells_s = seconds_since(t2);

  const bool identical = slurp(trials_outcome.csv_path) == slurp(cells_outcome.csv_path) &&
                         slurp(trials_outcome.json_path) == slurp(cells_outcome.json_path);
  const double overhead = hand_s > 0 ? trials_s / hand_s - 1.0 : 0.0;
  const double sharding_speedup = cells_s > 0 ? trials_s / cells_s : 0.0;

  sim::ResultsSink sink("s1_sweep_orchestration",
                        {"leg", "cells", "trials/cell", "seconds", "cells/s"});
  const auto row = [&](const char* leg, double seconds) {
    sink.cell(leg)
        .cell(std::uint64_t{cells.size()})
        .cell(spec.trials)
        .cell(seconds, 3)
        .cell(seconds > 0 ? static_cast<double>(cells.size()) / seconds : 0.0, 1);
    sink.end_row();
  };
  row("hand-rolled loop", hand_s);
  row("run_sweep trial-sharded", trials_s);
  row("run_sweep cell-sharded", cells_s);
  sink.flush("S1: sweep orchestration overhead + sharding composition");

  sim::ResultsSink fleet_sink("s1_sweep_worker_scaling",
                              {"leg", "workers", "seconds", "speedup", "cells/s"});
  const auto fleet_row = [&](const char* leg, std::uint64_t workers, double seconds) {
    fleet_sink.cell(leg)
        .cell(workers)
        .cell(seconds, 3)
        .cell(seconds > 0 ? single_s / seconds : 0.0, 2)
        .cell(seconds > 0 ? static_cast<double>(fleet_cells.size()) / seconds : 0.0, 1);
    fleet_sink.end_row();
  };
  fleet_row("single process", 1, single_s);
  for (const FleetLeg& leg : fleet) fleet_row("worker fleet", leg.workers, leg.seconds);
  fleet_sink.flush("S1: multi-process worker scaling (scenario-b, " +
                   std::to_string(fleet_cells.size()) + " cells)");

  bench::JsonReport report("sweep");
  report.config("quick", quick);
  report.config("cells", std::uint64_t{cells.size()});
  report.config("trials_per_cell", spec.trials);
  report.config("workers", std::uint64_t{bench::pool().worker_count()});
  report.config("hardware_cores", std::uint64_t{cores});
  report.config("fleet_cells", std::uint64_t{fleet_cells.size()});
  report.config("fleet_trials_per_cell", fleet_spec.trials);
  report.row({{"leg", "hand_rolled"}, {"seconds", hand_s}});
  report.row({{"leg", "trial_sharded"}, {"seconds", trials_s}, {"overhead_vs_hand", overhead}});
  report.row({{"leg", "cell_sharded"},
              {"seconds", cells_s},
              {"speedup_vs_trial_sharded", sharding_speedup},
              {"reports_identical", identical}});
  report.row({{"leg", "single_process"}, {"seconds", single_s}});
  report.row({{"leg", "fleet_1"},
              {"seconds", fleet[0].seconds},
              {"overhead_vs_single", fleet_overhead},
              {"reports_identical", fleet[0].identical}});
  report.row({{"leg", "fleet_2"},
              {"seconds", fleet[1].seconds},
              {"speedup_vs_single", speedup2},
              {"reports_identical", fleet[1].identical}});
  report.row({{"leg", "fleet_4"},
              {"seconds", fleet[2].seconds},
              {"speedup_vs_single", speedup4},
              {"reports_identical", fleet[2].identical}});
  report.write();

  std::cout << "orchestration overhead vs hand-rolled loop: " << overhead * 100.0 << "%\n"
            << "cell-sharded vs trial-sharded: " << sharding_speedup
            << "x (workers=" << bench::pool().worker_count() << ")\n"
            << "sharding modes byte-identical: " << (identical ? "yes" : "NO") << "\n"
            << "ledger+merge overhead (1 worker vs classic): " << fleet_overhead * 100.0
            << "%\n"
            << "fleet speedup: " << speedup2 << "x @ 2 workers, " << speedup4
            << "x @ 4 workers (cores=" << cores << ")\n";
  bool ok = true;
  if (!identical) {
    std::cout << "FAIL: sharding modes disagree\n";
    ok = false;
  }
  if (hand_s >= 0.25 && overhead > 0.15) {
    std::cout << "FAIL: orchestration overhead above 15%\n";
    ok = false;
  }
  for (const FleetLeg& leg : fleet) {
    if (!leg.identical) {
      std::cout << "FAIL: " << leg.workers << "-worker fleet report differs from the "
                << "single-process run\n";
      ok = false;
    }
  }
  // Noise guard: gate the 5% overhead bound only when the grid runs long
  // enough for 5% to be signal rather than scheduler jitter.
  if (single_s >= 0.25 && fleet_overhead > 0.05) {
    std::cout << "FAIL: claim-ledger + merge overhead above 5%\n";
    ok = false;
  }
  if (cores >= 2 && speedup2 < 1.6) {
    std::cout << "FAIL: 2-worker speedup below 1.6x on a multi-core host\n";
    ok = false;
  }
  if (!ok) return 1;
  std::cout << "PASS\n";
  return 0;
}
