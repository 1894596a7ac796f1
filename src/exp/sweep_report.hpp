#pragma once

/// \file sweep_report.hpp
/// Report assembly for `run_sweep`: the CSV/JSON writers and the
/// cross-cell robustness join.  A resumed sweep emits bytes identical to
/// an uninterrupted one because both go through exactly this code with
/// exactly the same inputs (records in grid order + the manifest header).

#include <string>
#include <vector>

#include "exp/manifest.hpp"

namespace wakeup::exp {

/// The report.csv column list, in emit order.
[[nodiscard]] const std::vector<std::string>& report_columns();

/// Robustness column: rounds inflation vs the clean twin — the cell with
/// the same identity minus the impairment suffix.  Cross-cell, so it runs
/// at report assembly (never in a cell executor) and recomputes
/// identically on every resume; the -1 sentinel survives only when the
/// grid carries no twin.
void apply_inflation_join(std::vector<CellRecord>& records);

/// Full-precision CSV report (%.17g doubles — the figures and the resume
/// byte-identity contract want the exact values the manifest carries).
void write_csv_report(const std::string& path, const std::vector<CellRecord>& records);

/// JSON report: the manifest header plus every cell object (the same flat
/// schema the manifest lines use), in grid order.
void write_json_report(const std::string& path, const ManifestHeader& header,
                       const std::vector<CellRecord>& records);

}  // namespace wakeup::exp
