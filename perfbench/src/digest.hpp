#pragma once

/// \file digest.hpp
/// Per-cell digests of a sweep report's simulation columns.
///
/// The simulation columns are every report.csv column except the
/// bootstrap-CI ones (`*_ci_lo`, `*_ci_hi`): what the engines computed,
/// independent of how confidence intervals are resampled.  A digest is the
/// 64-bit FNV-1a of a row's simulation fields joined by ','.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// One digest per data row of the report, in row order.  Throws
/// std::runtime_error when the file cannot be read or a row is malformed.
[[nodiscard]] std::vector<std::uint64_t> simulation_digests(const std::string& csv_path);

/// Whole-file byte comparison.
[[nodiscard]] bool same_bytes(const std::string& a, const std::string& b);

/// Pinned digests of (workload, seed) from `path`, whose lines read
/// "<workload> <seed> <hex>,<hex>,..." ('#' starts a comment line).  Empty
/// when that pair is not pinned.  Throws when the file is unreadable.
[[nodiscard]] std::optional<std::vector<std::uint64_t>> load_pinned(const std::string& path,
                                                                    const std::string& workload,
                                                                    std::uint64_t seed);

/// The pin line for `digests` in load_pinned's format.
[[nodiscard]] std::string pin_line(const std::string& workload, std::uint64_t seed,
                                   const std::vector<std::uint64_t>& digests);

}  // namespace perfbench
