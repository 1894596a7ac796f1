#include "sim/results_sink.hpp"

#include <cstdlib>
#include <iostream>

namespace wakeup::sim {

std::string ResultsSink::results_dir() {
  if (const char* env = std::getenv("WAKEUP_RESULTS_DIR")) return env;
  return "bench_results";
}

ResultsSink::ResultsSink(std::string table_id, std::vector<std::string> header)
    : table_id_(std::move(table_id)), table_(header) {
  const std::string dir = results_dir();
  if (dir.empty()) return;
  if (!util::ensure_directory(dir)) return;
  csv_path_ = dir + "/" + table_id_ + ".csv";
  try {
    csv_ = std::make_unique<util::CsvWriter>(csv_path_, header);
  } catch (...) {
    csv_.reset();  // CSV output is best-effort; the console table is canonical
    csv_path_.clear();
  }
}

ResultsSink& ResultsSink::cell(const std::string& v) {
  table_.cell(v);
  if (csv_) csv_->cell(v);
  return *this;
}

ResultsSink& ResultsSink::cell(double v, int precision) {
  table_.cell(v, precision);
  if (csv_) csv_->cell(v);
  return *this;
}

ResultsSink& ResultsSink::cell(std::uint64_t v) {
  table_.cell(v);
  if (csv_) csv_->cell(v);
  return *this;
}

ResultsSink& ResultsSink::cell(std::int64_t v) {
  table_.cell(v);
  if (csv_) csv_->cell(v);
  return *this;
}

void ResultsSink::end_row() {
  table_.end_row();
  if (csv_) csv_->end_row();
}

void ResultsSink::flush(const std::string& title) {
  util::print_banner(std::cout, title);
  table_.print(std::cout);
  if (csv_ && !csv_path_.empty()) {
    std::cout << "  [csv] " << csv_path_ << "\n";
  }
  std::cout.flush();
}

// ------------------------------------------------------- TrialCsvSink --

namespace {
const std::vector<std::string> kTrialHeader = {
    "trial",  "success", "s",        "success_slot", "rounds",
    "winner", "channel", "silences", "collisions",   "successes"};
}  // namespace

TrialCsvSink::TrialCsvSink(const std::string& path) : path_(path), csv_(path, kTrialHeader) {}

void TrialCsvSink::write(std::uint64_t trial, const SimResult& result) {
  const std::scoped_lock lock(mutex_);
  csv_.cell(trial)
      .cell(std::uint64_t{result.success ? 1u : 0u})
      .cell(static_cast<std::int64_t>(result.s))
      .cell(static_cast<std::int64_t>(result.success_slot))
      .cell(result.rounds)
      .cell(std::uint64_t{result.winner})
      .cell(std::int64_t{-1})
      .cell(result.silences)
      .cell(result.collisions)
      .cell(result.successes);
  csv_.end_row();
}

void TrialCsvSink::write(std::uint64_t trial, const McSimResult& result) {
  const std::scoped_lock lock(mutex_);
  csv_.cell(trial)
      .cell(std::uint64_t{result.success ? 1u : 0u})
      .cell(static_cast<std::int64_t>(result.s))
      .cell(static_cast<std::int64_t>(result.success_slot))
      .cell(result.rounds)
      .cell(std::uint64_t{result.winner})
      .cell(std::int64_t{result.success_channel})
      .cell(result.silences)
      .cell(result.collisions)
      .cell(result.successes);
  csv_.end_row();
}

std::size_t TrialCsvSink::rows() const {
  const std::scoped_lock lock(mutex_);
  return csv_.rows();
}

}  // namespace wakeup::sim
