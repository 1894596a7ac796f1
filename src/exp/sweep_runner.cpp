#include "exp/sweep_runner.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "exp/claim_ledger.hpp"
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

/// Writes the metrics/trace sidecar files a single-process run asked for.
/// Runs on every exit path (capped runs included) so smoke legs always
/// produce the files they validate.
void write_sidecars(const SweepOptions& options) {
  if (!options.metrics_path.empty()) obs::write_metrics_json(options.metrics_path);
  if (!options.trace_path.empty()) obs::write_trace_json(options.trace_path);
}

/// Emits one progress heartbeat through the sink (or the default stderr
/// line, prefixed with the worker id in worker mode).
void emit_heartbeat(const SweepOptions& options, std::uint64_t done_now, std::uint64_t resumed,
                    std::uint64_t total, std::chrono::steady_clock::time_point start) {
  SweepHeartbeat hb;
  hb.worker_id = options.worker_id;
  hb.completed = resumed + done_now;
  hb.total = total;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (elapsed > 0) hb.cells_per_sec = static_cast<double>(done_now) / elapsed;
  if (hb.cells_per_sec > 0 && hb.total > hb.completed) {
    hb.eta_sec = static_cast<double>(hb.total - hb.completed) / hb.cells_per_sec;
  }
  if (obs::active()) {
    hb.lease_steals = obs::snapshot_value(obs::snapshot(), "ledger.lease_steals");
  }
  if (options.heartbeat) {
    options.heartbeat(hb);
    return;
  }
  char prefix[32] = "";
  if (hb.worker_id >= 0) std::snprintf(prefix, sizeof prefix, "[worker %d] ", hb.worker_id);
  char registry[64] = "";
  if (obs::active()) {
    std::snprintf(registry, sizeof registry, "  steals %llu",
                  static_cast<unsigned long long>(hb.lease_steals));
  }
  std::fprintf(stderr, "%ssweep: %llu/%llu cells  %.2f cells/s  eta %.0fs%s\n", prefix,
               static_cast<unsigned long long>(hb.completed),
               static_cast<unsigned long long>(hb.total), hb.cells_per_sec, hb.eta_sec, registry);
}

/// Worker-mode run_sweep: lease contiguous chunks from the claim ledger,
/// run their cells sequentially (trials still fan onto options.pool),
/// append each result to this worker's single-writer shard, and repeat
/// until every cell is observed complete — or max_cells caps this worker,
/// which releases its unexecuted remainder for the others to take.  No
/// report is written here; `merge_sweep` owns it.
SweepOutcome run_sweep_worker(const SweepSpec& spec, const SweepOptions& options) {
  const std::vector<Cell> cells = expand(spec);
  if (cells.empty()) {
    throw std::invalid_argument("sweep: the grid expanded to zero feasible cells");
  }
  if (options.trial_csv != nullptr) {
    throw std::invalid_argument(
        "sweep: the per-trial CSV sink cannot serialize rows across worker processes — "
        "drop it when worker_id is set (or run single-process)");
  }
  if (!util::ensure_directory(options.out_dir)) {
    throw std::runtime_error("sweep: cannot create output directory " + options.out_dir);
  }
  const auto worker = static_cast<std::uint32_t>(options.worker_id);
  note_sweep_start();
  if (!options.trace_path.empty()) {
    obs::trace_set_process(options.worker_id, "worker-" + std::to_string(worker));
  }

  ManifestHeader header;
  header.base_seed = spec.base_seed;
  header.grid_hash = grid_fingerprint(cells, spec.base_seed);
  header.cells = cells.size();

  SweepOutcome outcome;
  outcome.cells_total = cells.size();
  outcome.manifest_path = options.out_dir + "/" + shard_manifest_name(worker);

  // Cells already banked anywhere count as completed: this worker's own
  // shard from a previous attempt, other workers' shards, or a legacy
  // single-process manifest.  Worker mode is inherently resume-shaped —
  // fresh fleets clear the directory up front (run_sweep_fleet).
  std::vector<std::uint8_t> completed(cells.size(), 0);
  for (const std::string& path : list_manifest_paths(options.out_dir)) {
    // A peer starting at the same moment may have created its shard but not
    // yet written the header; such a shard holds no records yet.
    if (std::filesystem::is_empty(path)) continue;
    const ManifestData data = load_manifest(path);
    if (data.header.base_seed != header.base_seed ||
        data.header.grid_hash != header.grid_hash || data.header.cells != header.cells) {
      throw std::runtime_error(
          "sweep: " + path +
          " was written by a different spec or base seed — refusing to mix results "
          "(delete the directory or change --out)");
    }
    for (const auto& [tag, record] : data.by_tag) {
      if (record.cell.index < completed.size()) completed[record.cell.index] = 1;
    }
  }
  for (const std::uint8_t done : completed) outcome.cells_resumed += done;

  ManifestWriter writer(outcome.manifest_path, header,
                        /*append=*/std::filesystem::exists(outcome.manifest_path));
  ClaimLedgerOptions ledger_options;
  ledger_options.now_ms = options.ledger_now_ms;
  ClaimLedger ledger(options.out_dir + "/claims.jsonl", header, std::move(ledger_options));

  const std::uint64_t lease = std::max<std::uint64_t>(1, options.lease_cells);
  const auto start_time = std::chrono::steady_clock::now();
  bool capped = false;
  while (!capped) {
    const ClaimChunk chunk = ledger.claim(worker, completed, lease, options.lease_ttl_ms);
    if (chunk.empty()) {
      // Nothing claimable: either the grid is drained, or every pending
      // cell is leased by a live worker — wait for dones or lease expiry.
      if (ledger.load().complete(completed)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      continue;
    }
    for (std::uint64_t c = chunk.begin; c < chunk.end; ++c) {
      if (options.max_cells > 0 && outcome.cells_run >= options.max_cells) {
        ledger.release(worker, {c, chunk.end});  // return the unexecuted remainder now
        capped = true;
        break;
      }
      // Renew the rest of the chunk before each later cell so one long cell
      // cannot expire the lease under us mid-chunk.  The claim itself just
      // wrote the lease for the first cell.
      if (c > chunk.begin) ledger.extend(worker, {c, chunk.end}, options.lease_ttl_ms);
      const CellRecord record = run_cell(spec, cells[c], options, options.pool);
      writer.append(record);
      ledger.mark_done(worker, c);
      completed[c] = 1;
      ++outcome.cells_run;
      if (options.heartbeat_cells > 0 && outcome.cells_run % options.heartbeat_cells == 0) {
        emit_heartbeat(options, outcome.cells_run, outcome.cells_resumed, outcome.cells_total,
                       start_time);
      }
      if (options.progress) {
        std::printf("[worker %u] %s  mean=%.1f  failures=%llu\n", worker, cells[c].tag.c_str(),
                    record.stats.rounds.mean,
                    static_cast<unsigned long long>(record.stats.failures));
        std::fflush(stdout);
      }
    }
  }

  const ClaimLedger::State state = ledger.load();
  outcome.drained = state.complete(completed);
  std::uint64_t banked = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (completed[i] || state.done[i]) ++banked;
  }
  outcome.cells_remaining = cells.size() - banked;

  // Sidecars shard per worker process (single-writer files, like the
  // manifest shards); the fleet driver merges the trace shards.
  if (!options.metrics_path.empty()) {
    obs::write_metrics_json(options.out_dir + "/metrics-" + std::to_string(worker) + ".json");
  }
  if (!options.trace_path.empty()) {
    obs::write_trace_json(options.out_dir + "/trace-" + std::to_string(worker) + ".json");
  }
  return outcome;
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
  if (options.worker_id >= 0) return run_sweep_worker(spec, options);
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
  std::mutex progress_mutex;
  std::atomic<std::uint64_t> heartbeat_done{0};
  const auto start_time = std::chrono::steady_clock::now();
  const auto run_one = [&](std::size_t i, util::ThreadPool* trial_pool) {
    fresh[i] = run_cell(spec, *pending[i], options, trial_pool);
    writer.append(fresh[i]);
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

SweepOutcome merge_sweep(const std::string& out_dir) {
  const std::vector<std::string> paths = list_manifest_paths(out_dir);
  if (paths.empty()) {
    throw std::runtime_error("merge: no manifest shards in " + out_dir);
  }

  ManifestHeader header;
  bool have_header = false;
  std::map<std::uint64_t, CellRecord> by_index;
  std::map<std::uint64_t, std::string> line_by_index;
  for (const std::string& path : paths) {
    ManifestData data = load_manifest(path);
    if (!have_header) {
      header = data.header;
      have_header = true;
    } else if (data.header.version != header.version ||
               data.header.base_seed != header.base_seed ||
               data.header.grid_hash != header.grid_hash ||
               data.header.cells != header.cells) {
      throw std::runtime_error(
          "merge: " + path + " and " + paths.front() +
          " were written by different specs or base seeds — refusing to mix results");
    }
    for (auto& [tag, record] : data.by_tag) {
      const std::uint64_t index = record.cell.index;
      if (index >= header.cells) {
        throw std::runtime_error("merge: " + path + " carries cell index " +
                                 std::to_string(index) + " outside the " +
                                 std::to_string(header.cells) + "-cell grid");
      }
      std::string line = manifest_line(record);
      const auto it = line_by_index.find(index);
      if (it != line_by_index.end()) {
        // Duplicates happen when a lease was stolen and the cell ran twice;
        // the seed contract makes those byte-identical.  Anything else is
        // foreign data and poisons the report.
        if (it->second != line) {
          throw std::runtime_error(
              "merge: shards disagree on cell '" + tag +
              "' — same identity, different results; refusing to merge (" + path + ")");
        }
        continue;
      }
      line_by_index.emplace(index, std::move(line));
      by_index.emplace(index, std::move(record));
    }
  }

  SweepOutcome outcome;
  outcome.cells_total = header.cells;
  outcome.cells_resumed = by_index.size();
  outcome.cells_remaining = header.cells - by_index.size();
  outcome.manifest_path = paths.front();
  if (outcome.cells_remaining > 0) return outcome;  // incomplete: no report

  // by_index is ordered, so this is exactly grid order — the same records,
  // join and writers as an uninterrupted single-process run.
  outcome.records.reserve(by_index.size());
  for (auto& [index, record] : by_index) outcome.records.push_back(std::move(record));
  apply_inflation_join(outcome.records);
  outcome.csv_path = out_dir + "/report.csv";
  outcome.json_path = out_dir + "/report.json";
  write_csv_report(outcome.csv_path, outcome.records);
  write_json_report(outcome.json_path, header, outcome.records);
  outcome.completed = true;
  outcome.drained = true;
  return outcome;
}

SweepOutcome run_sweep_fleet(const SweepSpec& spec, const SweepOptions& options,
                             std::uint32_t workers, std::size_t worker_threads) {
  if (workers == 0) throw std::invalid_argument("sweep: --workers must be >= 1");
  if (options.worker_id >= 0) {
    throw std::invalid_argument(
        "sweep: the fleet driver assigns worker ids — worker_id cannot be preset");
  }
  if (options.trial_csv != nullptr) {
    throw std::invalid_argument(
        "sweep: the per-trial CSV sink cannot serialize rows across worker processes");
  }
  (void)expand(spec);  // surface spec errors here, not in every child
  if (!util::ensure_directory(options.out_dir)) {
    throw std::runtime_error("sweep: cannot create output directory " + options.out_dir);
  }
  if (!options.resume) {
    // Fresh run: stale coordination state (an old grid's ledger, orphaned
    // shards, reports, sidecar shards) must not leak into the merge.
    std::filesystem::remove(options.out_dir + "/claims.jsonl");
    std::filesystem::remove(options.out_dir + "/report.csv");
    std::filesystem::remove(options.out_dir + "/report.json");
    for (const std::string& path : list_manifest_paths(options.out_dir)) {
      std::filesystem::remove(path);
    }
    for (const auto& entry : std::filesystem::directory_iterator(options.out_dir)) {
      const std::string name = entry.path().filename().string();
      if ((name.rfind("trace-", 0) == 0 || name.rfind("metrics-", 0) == 0) &&
          name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
        std::filesystem::remove(entry.path());
      }
    }
  }

  // fork() carries only the calling thread into the child, so the driver
  // must run before this process spawns any (ThreadPool::shared() included);
  // each child builds its own pool after the fork.
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids;
  pids.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      for (const pid_t child : pids) ::kill(child, SIGTERM);
      for (const pid_t child : pids) ::waitpid(child, nullptr, 0);
      throw std::runtime_error(std::string("sweep: fork failed: ") + std::strerror(err));
    }
    if (pid == 0) {
      try {
        util::ThreadPool pool(worker_threads);
        SweepOptions worker_options = options;
        worker_options.pool = &pool;
        worker_options.worker_id = static_cast<std::int32_t>(w);
        (void)run_sweep(spec, worker_options);
        std::fflush(stdout);
        std::fflush(stderr);
        ::_exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[worker %u] fatal: %s\n", w, e.what());
        std::fflush(stderr);
        ::_exit(1);
      }
    }
    pids.push_back(pid);
  }
  bool failed = false;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      failed = true;
    }
  }
  if (failed) {
    throw std::runtime_error(
        "sweep: a worker process failed — see its stderr above; the manifest shards keep "
        "every completed cell, so re-running with --resume continues where it stopped");
  }
  SweepOutcome outcome = merge_sweep(options.out_dir);
  if (!options.trace_path.empty()) {
    // The workers each wrote a process-row shard; stitch them textually
    // into one Perfetto-loadable file (missing shards — e.g. a worker that
    // claimed nothing — are skipped by the merger).
    std::vector<std::string> shards;
    shards.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
      shards.push_back(options.out_dir + "/trace-" + std::to_string(w) + ".json");
    }
    obs::merge_trace_shards(shards, options.trace_path);
  }
  if (!options.metrics_path.empty()) {
    // Per-worker registries live in <out_dir>/metrics-<W>.json; this
    // top-level file carries the driver-side (merge) registry.
    obs::write_metrics_json(options.metrics_path);
  }
  return outcome;
}

}  // namespace wakeup::exp
