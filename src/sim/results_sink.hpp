#pragma once

/// \file results_sink.hpp
/// One-call reporting for bench binaries: every row goes to an aligned
/// console table and, when a results directory is configured, to a CSV file
/// of the same shape.
///
/// The directory defaults to "bench_results" under the working directory
/// and can be overridden (or disabled with an empty string) via the
/// WAKEUP_RESULTS_DIR environment variable.
///
/// `TrialCsvSink` is the streaming counterpart for Monte-Carlo sweeps: one
/// CSV row per trial, written as trials complete, nothing accumulated in
/// memory — `sim::RunSpec::trial_csv` feeds it directly, which is what
/// lets sweeps scale past n = 10^6 stations without holding every
/// per-trial result.

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/mc_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace wakeup::sim {

class ResultsSink {
 public:
  /// `table_id` names the CSV file (<results_dir>/<table_id>.csv).
  ResultsSink(std::string table_id, std::vector<std::string> header);

  ResultsSink& cell(const std::string& v);
  ResultsSink& cell(const char* v) { return cell(std::string(v)); }
  ResultsSink& cell(double v, int precision = 2);
  ResultsSink& cell(std::uint64_t v);
  ResultsSink& cell(std::int64_t v);
  ResultsSink& cell(int v) { return cell(static_cast<std::int64_t>(v)); }
  ResultsSink& cell(unsigned v) { return cell(static_cast<std::uint64_t>(v)); }
  void end_row();

  /// Prints the table (banner + aligned rows) to stdout and reports where
  /// the CSV was written, if anywhere.
  void flush(const std::string& title);

  /// Resolved results directory ("" when CSV output is disabled).
  [[nodiscard]] static std::string results_dir();

 private:
  std::string table_id_;
  util::ConsoleTable table_;
  std::unique_ptr<util::CsvWriter> csv_;
  std::string csv_path_;
};

/// Streaming per-trial CSV: row per trial, no in-memory accumulation.
///
/// Columns: trial,success,s,success_slot,rounds,winner,channel,silences,
/// collisions,successes — `channel` is the winning channel of a C-channel
/// run and -1 for single-channel runs.  Writes are serialized by a mutex
/// (the RunSpec per-trial contract delivers distinct trials concurrently),
/// so rows appear in completion order; the trial column identifies them.
/// Plug into a run or sweep through `RunSpec::trial_csv`.
class TrialCsvSink {
 public:
  /// Opens `path` and writes the header.  Throws std::runtime_error when
  /// the file cannot be opened.
  explicit TrialCsvSink(const std::string& path);

  void write(std::uint64_t trial, const SimResult& result);
  void write(std::uint64_t trial, const McSimResult& result);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t rows() const;

 private:
  std::string path_;
  mutable std::mutex mutex_;
  util::CsvWriter csv_;
};

}  // namespace wakeup::sim
