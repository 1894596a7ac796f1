/// S1 — sweep orchestration: runner overhead and sharding.
///
/// The subsystem claim: `exp::run_sweep` adds negligible cost over a
/// hand-rolled loop of `sim::Run` cells (the PR-4 state of the art), while
/// giving grids declarative specs, a resumable manifest, CIs, and cell
/// sharding.  Measured here:
///   * hand-rolled loop vs run_sweep (trial-sharded) on the same grid —
///     the orchestration overhead, acceptance <= 15%;
///   * run_sweep cell-sharded vs inline — the composition speedup on
///     multi-core hosts (reported, not gated).
/// Bit-identity of the sharding modes is asserted in-run, mirroring the
/// SimdMatrix bench contract.

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"

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

  bench::JsonReport report("sweep");
  report.config("quick", quick);
  report.config("cells", std::uint64_t{cells.size()});
  report.config("trials_per_cell", spec.trials);
  report.config("workers", std::uint64_t{bench::pool().worker_count()});
  report.config("hardware_cores", std::uint64_t{cores});
  report.row({{"leg", "hand_rolled"}, {"seconds", hand_s}});
  report.row({{"leg", "trial_sharded"}, {"seconds", trials_s}, {"overhead_vs_hand", overhead}});
  report.row({{"leg", "cell_sharded"},
              {"seconds", cells_s},
              {"speedup_vs_trial_sharded", sharding_speedup},
              {"reports_identical", identical}});
  report.write();

  std::cout << "orchestration overhead vs hand-rolled loop: " << overhead * 100.0 << "%\n"
            << "cell-sharded vs trial-sharded: " << sharding_speedup
            << "x (workers=" << bench::pool().worker_count() << ")\n"
            << "sharding modes byte-identical: " << (identical ? "yes" : "NO") << "\n";
  bool ok = true;
  if (!identical) {
    std::cout << "FAIL: sharding modes disagree\n";
    ok = false;
  }
  if (hand_s >= 0.25 && overhead > 0.15) {
    std::cout << "FAIL: orchestration overhead above 15%\n";
    ok = false;
  }
  if (!ok) return 1;
  std::cout << "PASS\n";
  return 0;
}
