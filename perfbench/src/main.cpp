/// perfbench — the end-to-end sweep benchmark.
///
///   perfbench --workload <figures|crossover|traffic|channels> --seed <n>
///             --seconds <s> --trace <0|1> [--out <dir>] [--pins <file>] [--pin]
///
/// Runs the workload's sweep presets in-process through exp::run_sweep on a
/// 0-worker pool (one thread, obs off) for --seconds, checks the reports,
/// and prints the end-to-end metrics; with --trace 1 it pairs every
/// repetition with one that re-drives the same sweeps layer by layer
/// (traced_sweep.hpp) and prints the per-layer metrics instead.  The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.  Exit status: 0
/// when the outputs are correct, 1 when they are not, 2 on usage or
/// set-up errors (no JSON line then).  See perfbench/README.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "digest.hpp"
#include "exp/manifest.hpp"
#include "exp/presets.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/sweep_spec.hpp"
#include "host.hpp"
#include "obs/metrics.hpp"
#include "traced_sweep.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace wakeup;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Workload {
  std::string name;
  std::vector<std::string> presets;
  bool default_cis;  ///< false: --ci-resamples=0
  /// Base-seed offsets swept per run.  More than one where the work a
  /// preset does varies with its seed (crossover's largest cells), so that
  /// a run's time averages over several draws of the inputs.
  std::uint64_t seeds_per_run;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"figures", {"figure-scenario-a", "figure-scenario-b", "figure-scenario-c"}, true, 1},
      {"crossover", {"crossover"}, true, 2},
      {"traffic", {"dynamic-throughput"}, true, 2},
      {"channels", {"multichannel-scaling", "robustness-curves"}, false, 1},
  };
  return all;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
  std::string pins = "perfbench/digests.txt";
  bool pin = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--pin") {
      args.pin = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : workloads()) {
        if (w.name == value) args.workload = &w;
      }
      if (args.workload == nullptr) throw std::invalid_argument("unknown workload " + value);
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--pins") {
      args.pins = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr) throw std::invalid_argument("--workload is required");
  return args;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quartile q (0..4) by linear interpolation, as Python's
/// statistics.quantiles(method='inclusive') places them.
double quartile(std::vector<double> values, int q) {
  std::sort(values.begin(), values.end());
  const double pos = static_cast<double>(values.size() - 1) * q / 4.0;
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quartile(values, 2); }

struct Preset {
  std::string name;
  exp::SweepSpec spec;
};

/// The sweeps of one run: each preset at base-seed offsets
/// seed * seeds_per_run + j, j < seeds_per_run (offset 0 is the preset as
/// users run it).  Sweeps at j > 0 get a "-j" suffix on their directory.
std::vector<Preset> make_presets(const Workload& workload, std::uint64_t seed) {
  std::vector<Preset> presets;
  for (std::uint64_t j = 0; j < workload.seeds_per_run; ++j) {
    for (const std::string& name : workload.presets) {
      exp::SweepSpec spec = exp::make_preset(name);
      spec.base_seed += seed * workload.seeds_per_run + j;
      presets.push_back({j == 0 ? name : name + "-" + std::to_string(j), std::move(spec)});
    }
  }
  return presets;
}

/// What run_sweep does before it dispatches its first cell — preset
/// expansion, grid fingerprint, a 0-worker pool, the output directory and
/// a fresh manifest header — re-driven for every preset; returns seconds.
double time_setup(const Workload& workload, std::uint64_t seed, const std::string& dir) {
  const auto t0 = Clock::now();
  for (const Preset& preset : make_presets(workload, seed)) {
    const std::vector<exp::Cell> cells = exp::expand(preset.spec);
    exp::ManifestHeader header;
    header.base_seed = preset.spec.base_seed;
    header.grid_hash = exp::grid_fingerprint(cells, preset.spec.base_seed);
    header.cells = cells.size();
    util::ThreadPool pool(0);
    const std::string out_dir = dir + "/" + preset.name;
    if (!util::ensure_directory(out_dir)) {
      throw std::runtime_error("cannot create " + out_dir);
    }
    exp::ManifestWriter writer(out_dir + "/manifest.jsonl", header, /*append=*/false);
  }
  return seconds_since(t0);
}

/// The workload through exp::run_sweep; returns the outcomes.  With
/// `segments` set, it receives the wall time of every segment between
/// progress points — a sweep's start, the heartbeat after each of its
/// cells, its end — for all presets in order, in seconds.
std::vector<exp::SweepOutcome> run_sweeps(const std::vector<Preset>& presets,
                                          const std::string& dir, std::uint64_t resamples,
                                          util::ThreadPool& pool,
                                          std::vector<double>* segments = nullptr) {
  std::vector<exp::SweepOutcome> outcomes;
  for (const Preset& preset : presets) {
    exp::SweepOptions options;
    options.out_dir = dir + "/" + preset.name;
    options.pool = &pool;
    options.ci_resamples = resamples;
    auto last = Clock::now();
    if (segments != nullptr) {
      options.heartbeat_cells = 1;
      options.heartbeat = [segments, &last](const exp::SweepHeartbeat&) {
        const auto now = Clock::now();
        segments->push_back(std::chrono::duration<double>(now - last).count());
        last = now;
      };
    }
    outcomes.push_back(exp::run_sweep(preset.spec, options));
    if (segments != nullptr) segments->push_back(seconds_since(last));
    if (!outcomes.back().completed) {
      throw std::runtime_error("sweep " + preset.name + " did not complete");
    }
  }
  return outcomes;
}

/// Per-cell verdicts over the workload's concatenated grids.
class CellCheck {
 public:
  CellCheck(const std::vector<Preset>& presets, std::string expected_dir)
      : presets_(presets), expected_dir_(std::move(expected_dir)) {
    for (const Preset& preset : presets_) {
      expected_.push_back(simulation_digests(csv(expected_dir_, preset.name)));
      wrong_.resize(wrong_.size() + expected_.back().size(), false);
    }
  }

  [[nodiscard]] std::size_t cells() const { return wrong_.size(); }
  [[nodiscard]] std::size_t wrong_cells() const {
    return static_cast<std::size_t>(std::count(wrong_.begin(), wrong_.end(), true));
  }
  [[nodiscard]] bool reports_identical() const { return reports_identical_; }

  /// The reports in `dir` must be byte-identical to the expected ones; rows
  /// that differ in their simulation columns mark their cells wrong.
  void require_identical(const std::string& dir) {
    for (const Preset& preset : presets_) {
      for (const char* file : {"report.csv", "report.json"}) {
        if (!same_bytes(expected_dir_ + "/" + preset.name + "/" + file,
                        dir + "/" + preset.name + "/" + file)) {
          reports_identical_ = false;
        }
      }
    }
    if (!reports_identical_) require_simulation(dir);
  }

  /// Simulation columns of the reports in `dir` must match the expected.
  void require_simulation(const std::string& dir) {
    std::vector<std::uint64_t> digests;
    for (const Preset& preset : presets_) {
      const std::vector<std::uint64_t> part = simulation_digests(csv(dir, preset.name));
      digests.insert(digests.end(), part.begin(), part.end());
    }
    require_digests(digests);
  }

  /// The expected reports' digests must equal `digests` cell for cell.
  void require_digests(const std::vector<std::uint64_t>& digests) {
    const std::vector<std::uint64_t> expected = expected_digests();
    for (std::size_t i = 0; i < wrong_.size(); ++i) {
      if (i >= digests.size() || digests[i] != expected[i]) wrong_[i] = true;
    }
  }

  [[nodiscard]] std::vector<std::uint64_t> expected_digests() const {
    std::vector<std::uint64_t> all;
    for (const auto& part : expected_) all.insert(all.end(), part.begin(), part.end());
    return all;
  }

 private:
  static std::string csv(const std::string& dir, const std::string& preset) {
    return dir + "/" + preset + "/report.csv";
  }

  const std::vector<Preset>& presets_;
  std::string expected_dir_;
  std::vector<std::vector<std::uint64_t>> expected_;
  std::vector<bool> wrong_;
  bool reports_identical_ = true;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

/// Layer self times and counters of one traced pass over the workload.
std::map<std::string, double> traced_pass(const std::vector<Preset>& presets,
                                          const std::string& dir, std::uint64_t resamples,
                                          SpanRecorder& spans) {
  obs::reset();
  DriveCounts counts;
  const auto t0 = Clock::now();
  for (const Preset& preset : presets) {
    const DriveCounts part =
        drive_sweep(preset.spec, dir + "/" + preset.name, {.ci_resamples = resamples}, spans);
    counts.trials += part.trials;
    counts.slots += part.slots;
  }
  const double wall = seconds_since(t0);
  const obs::Snapshot snap = obs::snapshot();

  std::map<std::string, double> self = spans.self_seconds();
  const auto layer = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double covered = 0.0;
  for (const auto& [name, seconds] : self) {
    if (name != kSpanCell) covered += seconds;
  }
  std::map<std::string, double> m;
  m["exp.expand_s"] = layer("exp.expand");
  m["protocols.build_s"] = layer("protocols.build");
  m["mac.pattern_s"] = layer("mac.pattern");
  m["sim.run_self_s"] = layer("sim.run");
  m["exp.summaries_s"] = layer("exp.summaries");
  // finalize(R) - finalize(0); no resampling call at all when R = 0.
  m["exp.bootstrap_s"] = resamples > 0 ? layer("exp.finalize") - layer("exp.summaries") : 0.0;
  m["exp.manifest_s"] = layer("exp.manifest");
  m["exp.report_s"] = layer("exp.report");
  m["sim.trials"] = static_cast<double>(counts.trials);
  m["sim.slots"] = static_cast<double>(counts.slots);
  m["sim.slots_per_s"] = m["sim.run_self_s"] > 0 ? counts.slots / m["sim.run_self_s"] : 0.0;
  m["sim.census_declines"] =
      static_cast<double>(obs::snapshot_value(snap, "cache.census_declines"));
  m["sim.words_fetched"] = static_cast<double>(obs::snapshot_value(snap, "batch.words_fetched"));
  m["sim.tiles"] = static_cast<double>(obs::snapshot_value(snap, "batch.tiles"));
  m["sim.cache_hit_ratio"] = obs::snapshot_ratio(snap, "cache.find_hits", "cache.find_misses");
  m["sim.cache_bytes"] = static_cast<double>(obs::snapshot_value(snap, "cache.bytes_resident"));
  m["trace.wall_s"] = wall;
  m["trace.coverage_frac"] = wall > 0 ? covered / wall : 0.0;
  return m;
}

const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = {
      {"exp.expand_s", "s"},         {"protocols.build_s", "s"},
      {"mac.pattern_s", "s"},        {"sim.run_self_s", "s"},
      {"exp.summaries_s", "s"},      {"exp.bootstrap_s", "s"},
      {"exp.manifest_s", "s"},       {"exp.report_s", "s"},
      {"sim.trials", "count"},       {"sim.slots", "count"},
      {"sim.slots_per_s", "1/s"},    {"sim.census_declines", "count"},
      {"sim.words_fetched", "count"}, {"sim.tiles", "count"},
      {"sim.cache_hit_ratio", "ratio"}, {"sim.cache_bytes", "bytes"},
      {"trace.wall_s", "s"},         {"trace.coverage_frac", "frac"},
      {"obs.trace_overhead_frac", "frac"},
  };
  return units;
}

int run(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "refusing a %s build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.empty() ? "untyped" : build_type.c_str());
    return 2;
  }
  const Workload& workload = *args.workload;
  const std::uint64_t resamples = workload.default_cis ? exp::SweepOptions{}.ci_resamples : 0;
  const std::string root = args.out + "/" + workload.name;
  std::filesystem::remove_all(root);
  const std::vector<Preset> presets = make_presets(workload, args.seed);
  util::ThreadPool pool(0);
  obs::set_enabled(false);

  // Warm-up: fills lazy state, and its reports are what every later pass
  // must reproduce byte for byte.
  const std::string expected_dir = root + "/expected";
  (void)run_sweeps(presets, expected_dir, resamples, pool);
  CellCheck check(presets, expected_dir);
  if (args.pin) {
    std::printf("%s\n", pin_line(workload.name, args.seed, check.expected_digests()).c_str());
    return 0;
  }
  const HostInfo host = probe_host();

  // Untraced repetitions: run_sweep, one thread, obs off.  With --trace 1
  // each one is paired with a traced repetition of the same sweeps,
  // re-driven layer by layer with obs on, so both sides of the tracing
  // overhead see the same host conditions.
  std::vector<double> setup;    // per repetition
  std::vector<double> wall;     // per repetition
  std::vector<double> fastest;  // per progress segment, over repetitions
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::vector<double>> layer_samples;
  std::optional<SpanRecorder> spans;
  const auto loop_start = Clock::now();
  while (wall.size() < 3 || seconds_since(loop_start) < args.seconds) {
    // Fastest of three set-ups per repetition: filters the file-system
    // stalls a single set-up of a few hundred microseconds is exposed to.
    double setup_best = time_setup(workload, args.seed, root + "/setup");
    for (int i = 0; i < 2; ++i) {
      setup_best = std::min(setup_best, time_setup(workload, args.seed, root + "/setup"));
    }
    setup.push_back(setup_best);
    std::vector<double> segments;
    const auto t0 = Clock::now();
    const std::vector<exp::SweepOutcome> outcomes =
        run_sweeps(presets, root + "/run", resamples, pool, &segments);
    wall.push_back(seconds_since(t0));
    if (fastest.empty()) fastest = segments;
    if (segments.size() != fastest.size()) throw std::runtime_error("sweep progress changed");
    for (std::size_t i = 0; i < segments.size(); ++i) {
      fastest[i] = std::min(fastest[i], segments[i]);
    }
    for (const exp::SweepOutcome& outcome : outcomes) {
      for (const exp::CellRecord& record : outcome.records) {
        attempted += record.stats.trials;
        failed += record.stats.failures;
      }
    }
    check.require_identical(root + "/run");
    if (args.trace) {
      obs::set_enabled(true);
      spans.emplace(true);
      for (const auto& [name, value] : traced_pass(presets, root + "/traced", resamples, *spans)) {
        layer_samples[name].push_back(value);
      }
      obs::set_enabled(false);
      layer_samples["obs.trace_overhead_frac"].push_back(
          (layer_samples["trace.wall_s"].back() - wall.back()) / wall.back());
      check.require_identical(root + "/traced");
    }
  }
  const double rss = peak_rss_mb();
  const double wall_best = std::accumulate(fastest.begin(), fastest.end(), 0.0);

  std::vector<Metric> metrics;
  if (args.trace) {
    spans->write_chrome_json(root + "/trace.json");
    for (const auto& [name, unit] : layer_units()) {
      metrics.push_back({name, median(layer_samples.at(name)), unit});
    }
    const double coverage = median(layer_samples.at("trace.coverage_frac"));
    if (coverage < 0.95) {
      std::fprintf(stderr, "layer self times cover only %.1f%% of the traced wall\n",
                   100.0 * coverage);
    }
  } else {
    metrics = {{"setup_s", median(setup), "s"},
               {"wall_s", wall_best, "s"},
               {"peak_rss_mb", rss, "MB"}};
  }

  // Correctness: pinned digests where this seed has them, and always the
  // slot-interpreter reference computation of every cell.
  const std::optional<std::vector<std::uint64_t>> pinned =
      load_pinned(args.pins, workload.name, args.seed);
  if (pinned) check.require_digests(*pinned);
  SpanRecorder no_spans(false);
  for (const Preset& preset : presets) {
    (void)drive_sweep(preset.spec, root + "/reference/" + preset.name,
                      {.ci_resamples = 0, .force_interpreter = true}, no_spans);
  }
  check.require_simulation(root + "/reference");

  const std::size_t wrong = check.wrong_cells();
  const bool correct = wrong == 0 && check.reports_identical();
  const double fail_frac = attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  const double wrong_frac = static_cast<double>(wrong) / static_cast<double>(check.cells());

  std::printf("perfbench workload=%s seed=%llu trace=%d reps=%zu cells=%zu\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, wall.size(), check.cells());
  std::printf("host: %s\n", host_json(host).c_str());
  std::printf("  %-24s %.6g s  (median of %zu; q1 %.6g, q3 %.6g)\n", "setup_s", median(setup),
              setup.size(), quartile(setup, 1), quartile(setup, 3));
  std::printf("  %-24s %.6g s  (sum over %zu progress segments of each one's fastest of %zu "
              "repetitions)\n",
              "wall_s", wall_best, fastest.size(), wall.size());
  std::printf("  %-24s %.6g s  (median of %zu; q1 %.6g, q3 %.6g)\n", "repetition wall",
              median(wall), wall.size(), quartile(wall, 1), quartile(wall, 3));
  std::printf("  %-24s %.6g MB\n", "peak_rss_mb", rss);
  std::printf("  %-24s %.6g frac  (%llu of %llu trials exhausted the budget)\n",
              "trial_fail_frac", fail_frac, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  %-24s %.6g frac  (%zu of %zu cells; pinned digest %s; interpreter reference)\n",
              "cells_wrong_frac", wrong_frac, wrong, check.cells(),
              pinned ? "checked" : "absent for this seed");
  if (!check.reports_identical()) {
    std::printf("  reports of a later pass differ from the warm-up's\n");
  }
  if (args.trace) {
    for (const Metric& m : metrics) {
      std::printf("  %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  {
    std::FILE* result = std::fopen((root + "/result.json").c_str(), "w");
    if (result != nullptr) {
      std::fprintf(result, "{\"host\": %s, \"result\": %s}\n", host_json(host).c_str(),
                   json.c_str());
      std::fclose(result);
    }
  }
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
