#pragma once

/// \file pattern_io.hpp
/// CSV serialization of wake patterns: "station,wake" per line with an
/// optional header.  Lets the CLI replay externally captured arrival
/// traces and lets experiments pin the exact pattern a run used.

#include <iosfwd>
#include <string>

#include "mac/arrival_process.hpp"
#include "mac/wake_pattern.hpp"

namespace wakeup::mac {

/// Writes "station,wake" rows with a header line.
void write_pattern_csv(std::ostream& os, const WakePattern& pattern);

/// Parses a pattern for universe size n.  Accepts an optional
/// "station,wake" header; skips blank lines and '#' comments.  Throws
/// std::runtime_error with a line-numbered message on a row that is not
/// two whole integers (a 32-bit station, a 64-bit slot; spaces, tabs and
/// CRs around each are fine) and std::invalid_argument for semantic
/// violations (duplicate station, id out of range) via WakePattern.
[[nodiscard]] WakePattern read_pattern_csv(std::istream& is, std::uint32_t n);

void save_pattern_csv(const std::string& path, const WakePattern& pattern);
[[nodiscard]] WakePattern load_pattern_csv(const std::string& path, std::uint32_t n);

/// Parses a dynamic replay trace: "station,slot" rows, same comment/header
/// conventions as read_pattern_csv, but a station may appear any number of
/// times (one row per packet).  `horizon` 0 derives the tightest horizon
/// (max slot + 1); otherwise every slot must lie in [0, horizon).  The
/// packet list flows through DynamicScenario validation (kReplay spec).
[[nodiscard]] DynamicScenario read_arrivals_csv(std::istream& is, std::uint32_t n,
                                                Slot horizon);
[[nodiscard]] DynamicScenario load_arrivals_csv(const std::string& path, std::uint32_t n,
                                                Slot horizon);

/// Writes "station,slot" rows with a header line — the exact format
/// read_arrivals_csv accepts, so a generated scenario can be pinned to disk
/// and replayed (`run --arrival-file=`).  Rows come in `packets()` order
/// (by slot, ties by station), so load → save → load round-trips and a
/// reloaded trace is identical packet-for-packet.
void write_arrivals_csv(std::ostream& os, const DynamicScenario& scenario);
void save_arrivals_csv(const std::string& path, const DynamicScenario& scenario);

}  // namespace wakeup::mac
