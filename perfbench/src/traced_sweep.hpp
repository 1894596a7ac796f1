#pragma once

/// \file traced_sweep.hpp
/// A sweep driven layer by layer from outside the library.
///
/// `drive_sweep` produces the same manifest and reports as
/// `exp::run_sweep` on a 0-worker pool, but calls each layer through its
/// public entry point itself — protocol factories, pattern generation,
/// `sim::Run`, `exp::Aggregator::finalize`, `exp::ManifestWriter::append`,
/// the report writers, `exp::expand` — so every call can be wrapped in a
/// span recorded by the benchmark's own code.  The same code path, with the
/// engine forced to the slot interpreter, is the benchmark's reference
/// computation for seeds that have no pinned digest.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/sweep_spec.hpp"

namespace perfbench {

/// One recorded layer call.  `cell` is the grid index of the cell the call
/// served (the id shared by all spans of one cell; -1 for grid-level
/// calls), `parent` the index of the enclosing span (-1 at top level).
struct Span {
  const char* name = "";
  std::int64_t cell = -1;
  std::int32_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span store for single-threaded use: spans nest by call order.
/// A disabled recorder records nothing and its scopes cost a branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened by `SpanRecorder::scope`, closed on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::int32_t index) : recorder_(recorder), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::int32_t index_;
  };

  [[nodiscard]] Scope scope(const char* name, std::int64_t cell);

  /// Self time per span name, in seconds: each span's duration minus the
  /// part covered by its direct children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON (loadable in Perfetto): one complete ("X")
  /// event per span, with the cell id and parent span in its args.
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

struct DriveOptions {
  std::uint64_t ci_resamples = 0;
  /// Force the slot-by-slot interpreter in every cell (the reference
  /// computation).  Cell identities and seeds are unchanged.
  bool force_interpreter = false;
};

/// Simulation work done by a driven sweep, counted at the trial sinks.
struct DriveCounts {
  std::uint64_t trials = 0;
  /// Slots walked: to the first success (or through the budget) for
  /// static and C-channel trials, the whole horizon for dynamic ones.
  std::uint64_t slots = 0;
};

/// Runs `spec` into `out_dir` (manifest.jsonl, report.csv, report.json),
/// cells in grid order on the calling thread, recording one span per layer
/// call into `spans`.  Throws like exp::run_sweep on spec and IO problems.
DriveCounts drive_sweep(const wakeup::exp::SweepSpec& spec, const std::string& out_dir,
                        const DriveOptions& options, SpanRecorder& spans);

/// Span names of the layers; "bench.cell" is the benchmark's own per-cell
/// glue (RunSpec assembly, closures), not a layer of the program.
inline constexpr const char* kSpanCell = "bench.cell";

}  // namespace perfbench
