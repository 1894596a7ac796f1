#pragma once

/// \file host.hpp
/// The host and build a benchmark result was measured on.

#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  /// Wall time of nproc concurrent busy loops over one busy loop alone:
  /// 1.0 on a host with nproc idle cores, higher when they are shared.
  double parallel_ratio = 0.0;
  std::string compiler;
  std::string build_type;
  std::string simd_kernel;  ///< the word-matrix kernel table chosen at run time
  bool simd_compiled = false;
  bool obs_compiled = false;
};

/// Probes the host (about a quarter second of busy loops) and the build.
[[nodiscard]] HostInfo probe_host();

/// One-line JSON object with every field.
[[nodiscard]] std::string host_json(const HostInfo& host);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
