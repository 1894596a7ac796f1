#include "exp/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>

#include "exp/sweep_report.hpp"
#include "mac/wake_pattern.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "sim/adversary.hpp"
#include "sim/results_sink.hpp"
#include "sim/run.hpp"
#include "util/csv.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wakeup::exp {

namespace {

/// CI stream of a cell: tied to the same (base_seed, tag) identity as the
/// trial seeds but on its own tag, so adding resamples never perturbs the
/// simulation and any cell subset reproduces its CIs alone.
std::uint64_t ci_seed(std::uint64_t base_seed, std::uint64_t cell_tag) {
  return util::hash_words({base_seed, 0x4349ULL /* "CI" */, cell_tag});
}

/// Adversarial pattern-search stream (same reasoning).
std::uint64_t adversary_seed(std::uint64_t base_seed, std::uint64_t cell_tag) {
  return util::hash_words({base_seed, 0x414456ULL /* "ADV" */, cell_tag});
}

proto::ProtocolPtr build_registry_protocol(const Cell& cell, std::uint64_t seed) {
  proto::ProtocolSpec spec;
  spec.name = cell.protocol;
  spec.n = cell.n;
  spec.k = cell.k;
  spec.s = cell.s;
  spec.seed = seed;
  return proto::make_protocol_by_name(spec);
}

proto::McProtocolPtr build_mc_protocol(const Cell& cell, std::uint64_t seed) {
  if (cell.protocol == "striped_rr") {
    return proto::make_striped_round_robin(cell.n, cell.channels);
  }
  if (cell.protocol == "group_wag") {
    return proto::make_group_wait_and_go(cell.n, cell.k, cell.channels,
                                         comb::FamilyKind::kRandomized, seed);
  }
  if (cell.protocol == "random_rpd") {
    return proto::make_random_channel_rpd(cell.n, cell.channels, seed);
  }
  return proto::make_single_channel_adapter(build_registry_protocol(cell, seed),
                                            cell.channels);
}

/// Executes one cell and returns its finished record.  `trial_pool` is the
/// pool handed to sim::Run — nullptr in cell-sharded mode, where the
/// calling thread is already a pool worker and Run's
/// ThreadPool::current() detection keeps the trials inline instead of
/// deadlocking on (or oversubscribing) the pool the cells are sharded on.
CellRecord run_cell_impl(const SweepSpec& spec, const Cell& cell, const SweepOptions& options,
                         util::ThreadPool* trial_pool) {
  sim::RunSpec run;
  run.trials = cell.trials;
  run.base_seed = spec.base_seed;
  run.cell_tag = cell.tag_hash;
  run.sim = spec.sim;
  run.sim.engine = cell.engine;
  run.impairment = cell.impairment;
  // Sweep cells account energy under the listen:all model.  Energy is pure
  // side-accounting (the trial seed streams and outcomes are untouched) and
  // deliberately NOT part of the cell tag — every manifest v4 record simply
  // carries the block, so resumed and fresh reports stay byte-identical.
  run.sim.energy = sim::EnergyModel::kListenAll;

  if (cell.dynamic) {
    // Dynamic cells: arrival-generated traffic in place of a wake pattern;
    // the facade realizes one scenario per trial from the trial stream.
    run.horizon = cell.horizon;
    run.arrival = cell.arrival;
    run.dynamic_n = cell.n;
    run.dynamic_k = cell.k;
    run.make_protocol = [&cell](std::uint64_t seed) {
      return build_registry_protocol(cell, seed);
    };
    CellRecord record;
    record.cell = cell;
    record.stats = sim::Run(run, trial_pool)
                       .trials.finalize(options.ci_resamples,
                                        ci_seed(spec.base_seed, cell.tag_hash));
    return record;  // theory bounds are one-shot statements; no bound column
  }
  run.trial_csv = options.trial_csv;

  const bool multichannel = cell.channels > 1 || is_mc_strategy(cell.protocol);
  if (multichannel) {
    run.make_mc_protocol = [&cell](std::uint64_t seed) {
      return build_mc_protocol(cell, seed);
    };
  } else {
    run.make_protocol = [&cell](std::uint64_t seed) {
      return build_registry_protocol(cell, seed);
    };
  }

  // Wake pattern: a per-trial generator, except the adversarial kind,
  // which runs the sim/adversary hill-climbing search once per cell
  // (seeded from the cell identity) and fixes the hardest pattern found
  // for every trial.
  mac::WakePattern adversarial;
  if (cell.pattern == PatternKind::kAdversarial) {
    const auto factory = [&cell](std::uint64_t seed) {
      return build_registry_protocol(cell, seed);
    };
    const sim::PatternSearchResult search = sim::search_worst_pattern(
        factory, cell.n, cell.k, /*restarts=*/3, /*steps_per_restart=*/32,
        adversary_seed(spec.base_seed, cell.tag_hash), run.sim);
    adversarial = search.worst;
    run.pattern = &adversarial;
  } else {
    const mac::patterns::Kind kind = generator_kind(cell.pattern);
    const std::uint32_t n = cell.n;
    const std::uint32_t k = cell.k;
    const mac::Slot s = cell.s;
    run.make_pattern = [kind, n, k, s](util::Rng& rng) {
      return mac::patterns::generate(kind, n, k, s, rng);
    };
  }

  CellRecord record;
  record.cell = cell;
  record.stats = sim::Run(run, trial_pool)
                     .trials.finalize(options.ci_resamples,
                                      ci_seed(spec.base_seed, cell.tag_hash));
  record.bound = cell_bound(cell);
  record.normalized_mean = sim::normalized_mean(record.stats, record.bound);
  return record;
}

/// run_cell_impl plus the per-cell observability: wall time into the
/// "sweep.cell_wall_us" histogram, a "sweep.cells_run" tick, and one
/// Perfetto duration event named by the cell tag.  All of it is sidecar
/// state — the record itself is untouched, so reports stay byte-identical
/// with obs on, off, or compiled out.
CellRecord run_cell(const SweepSpec& spec, const Cell& cell, const SweepOptions& options,
                    util::ThreadPool* trial_pool) {
  const bool observing = obs::active() || obs::trace_active();
  const std::uint64_t t0 = observing ? obs::trace_now_us() : 0;
  CellRecord record = run_cell_impl(spec, cell, options, trial_pool);
  if (observing) {
    const std::uint64_t wall = obs::trace_now_us() - t0;
    if (obs::active()) {
      static const auto c_cells = obs::Counter::get("sweep.cells_run");
      static const auto h_wall = obs::Histogram::get("sweep.cell_wall_us");
      c_cells.inc();
      h_wall.observe(wall);
    }
    if (obs::trace_active()) {
      obs::trace_duration(cell.tag, "cell", t0, wall,
                          {{"protocol", cell.protocol},
                           {"n", std::to_string(cell.n)},
                           {"k", std::to_string(cell.k)}});
    }
  }
  return record;
}

/// Once per sweep invocation: pins which SIMD kernel table ran the batch
/// engines into the registry ("simd.kernel.<name>" = 1).
void note_sweep_start() {
  if (!obs::active()) return;
  obs::Counter::get(std::string("simd.kernel.") + util::simd::active_name()).inc();
}

/// Writes the metrics/trace sidecar files the run asked for.
/// Runs on every exit path (capped runs included) so smoke legs always
/// produce the files they validate.
void write_sidecars(const SweepOptions& options) {
  if (!options.metrics_path.empty()) obs::write_metrics_json(options.metrics_path);
  if (!options.trace_path.empty()) obs::write_trace_json(options.trace_path);
}

/// Emits one progress heartbeat through the sink (or the default stderr
/// line).
void emit_heartbeat(const SweepOptions& options, std::uint64_t done_now, std::uint64_t resumed,
                    std::uint64_t total, std::chrono::steady_clock::time_point start) {
  SweepHeartbeat hb;
  hb.completed = resumed + done_now;
  hb.total = total;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (elapsed > 0) hb.cells_per_sec = static_cast<double>(done_now) / elapsed;
  if (hb.cells_per_sec > 0 && hb.total > hb.completed) {
    hb.eta_sec = static_cast<double>(hb.total - hb.completed) / hb.cells_per_sec;
  }
  if (options.heartbeat) {
    options.heartbeat(hb);
    return;
  }
  std::fprintf(stderr, "sweep: %llu/%llu cells  %.2f cells/s  eta %.0fs\n",
               static_cast<unsigned long long>(hb.completed),
               static_cast<unsigned long long>(hb.total), hb.cells_per_sec, hb.eta_sec);
}

}  // namespace

double cell_bound(const Cell& cell) {
  if (cell.protocol == "striped_rr") {
    return static_cast<double>(util::ceil_div(cell.n, cell.channels));
  }
  if (cell.protocol == "group_wag") {
    return util::scenario_ab_bound(cell.n, cell.k) / static_cast<double>(cell.channels);
  }
  if (cell.protocol == "random_rpd") {
    return util::scenario_c_bound(cell.n, cell.k) / static_cast<double>(cell.channels);
  }
  const proto::ProtocolCapabilities caps = proto::protocol_capabilities(cell.protocol);
  if (caps.needs_start_time || caps.needs_k) {
    return util::scenario_ab_bound(cell.n, cell.k);
  }
  return util::scenario_c_bound(cell.n, cell.k);
}

SweepOutcome run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  note_sweep_start();
  const std::vector<Cell> cells = expand(spec);
  if (cells.empty()) {
    throw std::invalid_argument("sweep: the grid expanded to zero feasible cells");
  }
  if (options.trial_csv != nullptr && !spec.arrivals.empty()) {
    throw std::invalid_argument(
        "sweep: the per-trial CSV stream has no row schema for dynamic cells — drop "
        "--trials-csv from arrival-axis sweeps");
  }
  if (!util::ensure_directory(options.out_dir)) {
    throw std::runtime_error("sweep: cannot create output directory " + options.out_dir);
  }

  ManifestHeader header;
  header.base_seed = spec.base_seed;
  header.grid_hash = grid_fingerprint(cells, spec.base_seed);
  header.cells = cells.size();

  SweepOutcome outcome;
  outcome.cells_total = cells.size();
  outcome.manifest_path = options.out_dir + "/manifest.jsonl";

  // Resume pass: collect completed cells, validate the manifest identity.
  std::map<std::string, CellRecord> done;
  const bool manifest_exists = std::filesystem::exists(outcome.manifest_path);
  if (options.resume && manifest_exists) {
    ManifestData data = load_manifest(outcome.manifest_path);
    if (data.header.base_seed != header.base_seed || data.header.grid_hash != header.grid_hash) {
      throw std::runtime_error(
          "sweep: " + outcome.manifest_path +
          " was written by a different spec or base seed — refusing to mix results "
          "(delete the directory or change --out)");
    }
    done = std::move(data.by_tag);
  }
  outcome.cells_resumed = done.size();

  std::vector<const Cell*> pending;
  for (const Cell& cell : cells) {
    if (done.find(cell.tag) == done.end()) pending.push_back(&cell);
  }
  const std::uint64_t cap =
      options.max_cells > 0 ? std::min<std::uint64_t>(options.max_cells, pending.size())
                            : pending.size();
  outcome.cells_remaining = pending.size() - cap;
  pending.resize(cap);

  ManifestWriter writer(outcome.manifest_path, header,
                        /*append=*/options.resume && manifest_exists);

  util::ThreadPool* pool = options.pool != nullptr ? options.pool : &util::ThreadPool::shared();
  const bool cell_sharded =
      options.sharding == Sharding::kCells ||
      (options.sharding == Sharding::kAuto &&
       pending.size() >= std::max<std::size_t>(2, pool->worker_count()));

  std::vector<CellRecord> fresh(pending.size());
  // Manifest lines go out in grid order: a finished cell waits in memory
  // until every earlier pending cell has been appended, so a kill loses at
  // most the waiting cells, which --resume re-runs.
  std::mutex append_mutex;
  std::vector<bool> finished(pending.size(), false);
  std::size_t next_append = 0;
  std::mutex progress_mutex;
  std::atomic<std::uint64_t> heartbeat_done{0};
  const auto start_time = std::chrono::steady_clock::now();
  const auto run_one = [&](std::size_t i, util::ThreadPool* trial_pool) {
    fresh[i] = run_cell(spec, *pending[i], options, trial_pool);
    {
      const std::lock_guard<std::mutex> lock(append_mutex);
      finished[i] = true;
      for (; next_append < pending.size() && finished[next_append]; ++next_append) {
        writer.append(fresh[next_append]);
      }
    }
    const std::uint64_t done_now = heartbeat_done.fetch_add(1) + 1;
    if (options.heartbeat_cells > 0 && done_now % options.heartbeat_cells == 0) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      emit_heartbeat(options, done_now, outcome.cells_resumed, outcome.cells_total, start_time);
    }
    if (options.progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      std::printf("[%zu/%zu] %s  mean=%.1f  failures=%llu\n", i + 1, pending.size(),
                  pending[i]->tag.c_str(), fresh[i].stats.rounds.mean,
                  static_cast<unsigned long long>(fresh[i].stats.failures));
      std::fflush(stdout);
    }
  };
  if (cell_sharded) {
    // Nested Runs must stay inline: with workers, ThreadPool::current()
    // inside sim::Run detects the worker thread (trial_pool == nullptr);
    // a 0-worker pool runs parallel_for on the caller — not a worker — so
    // pass the inline pool itself, or Run would silently fan trials onto
    // the multi-threaded shared pool against the "0 = inline" contract.
    util::ThreadPool* trial_pool = pool->worker_count() == 0 ? pool : nullptr;
    pool->parallel_for(0, pending.size(), [&](std::size_t i) { run_one(i, trial_pool); });
  } else {
    for (std::size_t i = 0; i < pending.size(); ++i) run_one(i, options.pool);
  }
  outcome.cells_run = pending.size();

  if (outcome.cells_remaining > 0) {
    write_sidecars(options);
    return outcome;  // capped: no report yet
  }

  // Assemble the report in grid order from resumed + fresh records.
  std::map<std::string, const CellRecord*> fresh_by_tag;
  for (const CellRecord& record : fresh) fresh_by_tag[record.cell.tag] = &record;
  outcome.records.reserve(cells.size());
  for (const Cell& cell : cells) {
    const auto it = fresh_by_tag.find(cell.tag);
    CellRecord record = it != fresh_by_tag.end() ? *it->second : done.at(cell.tag);
    // Identity comes from the grid, not the manifest text: index and tag
    // are already equal by construction, but normalize anyway so a report
    // row never disagrees with its grid cell.
    record.cell = cell;
    outcome.records.push_back(std::move(record));
  }

  apply_inflation_join(outcome.records);
  outcome.csv_path = options.out_dir + "/report.csv";
  outcome.json_path = options.out_dir + "/report.json";
  write_csv_report(outcome.csv_path, outcome.records);
  write_json_report(outcome.json_path, header, outcome.records);
  outcome.completed = true;
  write_sidecars(options);
  return outcome;
}

}  // namespace wakeup::exp
