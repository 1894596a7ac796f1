#pragma once

/// \file sweep_runner.hpp
/// Sharded, resumable execution of a sweep grid.
///
/// `run_sweep` expands the spec, shards the pending cells onto a thread
/// pool (cell-level parallelism composes with the facade's trial-level
/// parallelism without oversubscription: a `sim::Run` issued from inside a
/// pool worker detects the pool via `util::ThreadPool::current()` and runs
/// its trials inline), finalizes each cell's trials — collected once by
/// `sim::Run` into a `sim::CellTrials` — into one `CellStats` appended to
/// the JSONL manifest, and finally writes a CSV + JSON report in grid
/// order.
///
/// Interruption contract: kill the process at any point; re-running with
/// `resume = true` re-reads the manifest, skips completed cells (dropping a
/// torn trailing line), runs only the remainder, and produces a final
/// report byte-identical to an uninterrupted run — per-cell results are
/// pure functions of (base_seed, cell tag), and CIs are seeded from the
/// same identity.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/manifest.hpp"
#include "exp/sweep_spec.hpp"
#include "util/thread_pool.hpp"

namespace wakeup::sim {
class TrialCsvSink;
}

namespace wakeup::exp {

/// How pending cells map onto the pool.
enum class Sharding : std::uint8_t {
  /// Cell-parallel when there are at least as many pending cells as
  /// workers, trial-parallel otherwise.  The default.
  kAuto,
  /// One pool task per cell; each cell's trials run inline in the worker.
  kCells,
  /// Cells sequential on the caller; each cell fans its trials on the pool.
  kTrials,
};

/// One progress heartbeat (see SweepOptions::heartbeat_cells).
struct SweepHeartbeat {
  std::uint64_t completed = 0;  ///< grid cells with results (resumed + run)
  std::uint64_t total = 0;      ///< grid size
  double cells_per_sec = 0.0;   ///< this invocation's completion rate
  double eta_sec = 0.0;         ///< remaining / rate (0 while rate unknown)
};

struct SweepOptions {
  /// Output directory (created if missing): manifest.jsonl, report.csv,
  /// report.json.
  std::string out_dir = "sweep_out";
  /// Resume from an existing manifest in out_dir (fresh run when none).
  bool resume = false;
  /// Pool for cell/trial parallelism; nullptr uses ThreadPool::shared().
  util::ThreadPool* pool = nullptr;
  Sharding sharding = Sharding::kAuto;
  /// Bootstrap resamples for the per-cell CIs (0 disables).
  std::uint64_t ci_resamples = 2000;
  /// Stop after this many *pending* cells (0 = run all): lets tests and the
  /// CI smoke leg simulate a mid-grid kill deterministically.  A capped run
  /// appends to the manifest but writes no report.
  std::uint64_t max_cells = 0;
  /// Optional shared per-trial CSV stream (one row per trial across ALL
  /// cells; the sink serializes concurrent writers).
  sim::TrialCsvSink* trial_csv = nullptr;
  /// Per-cell progress lines on stdout.
  bool progress = false;
  /// Progress heartbeat: every N completed cells emit completed/total,
  /// cells/sec and ETA (to stderr by default).  0 = off, so CI logs stay
  /// clean.
  std::uint64_t heartbeat_cells = 0;
  /// Heartbeat sink override (tests, embedding); the default logs a line
  /// to stderr.
  std::function<void(const SweepHeartbeat&)> heartbeat;

  // ---- observability sidecars ----------------------------------------
  /// When non-empty, write the obs registry snapshot (metrics.json) here
  /// once the run finishes — capped runs included, so smoke legs always
  /// get a file.  The registry must be runtime-enabled (obs::set_enabled)
  /// for the snapshot to carry data; the sidecar never feeds back into
  /// results.
  std::string metrics_path;
  /// When non-empty, write a Chrome trace-event (Perfetto-loadable) file
  /// here: one duration event per executed cell, named by the cell tag.
  /// Requires obs::set_trace_enabled(true) to record events.
  std::string trace_path;
};

struct SweepOutcome {
  /// True when every grid cell has a result and the report was written.
  bool completed = false;
  std::uint64_t cells_total = 0;
  std::uint64_t cells_run = 0;      ///< executed this invocation
  std::uint64_t cells_resumed = 0;  ///< taken from the manifest
  std::uint64_t cells_remaining = 0;  ///< left pending by max_cells
  /// All records in grid order (only when completed).
  std::vector<CellRecord> records;
  std::string manifest_path;
  std::string csv_path;   ///< "" until completed
  std::string json_path;  ///< "" until completed
};

/// Executes the sweep.  Throws std::invalid_argument on spec problems and
/// std::runtime_error on IO problems or a resume against a manifest whose
/// base seed / grid fingerprint does not match the spec.
[[nodiscard]] SweepOutcome run_sweep(const SweepSpec& spec, const SweepOptions& options);

/// The theory-bound column of a cell: Scenario A/B protocols (needs_s or
/// needs_k) normalize against k log2(n/k) + 1, everything else against the
/// Scenario C bound k log2(n) loglog2(n); native multichannel strategies
/// divide by C (striped_rr against its exact ceil(n/C) TDM worst case).
/// Registry protocols swept at C > 1 ride the idle-channel adapter and
/// keep their single-channel bound.
[[nodiscard]] double cell_bound(const Cell& cell);

}  // namespace wakeup::exp
