/// S — SIMD word-matrix engine: per-trial time of the tiled engine
/// (station-major word matrix, tile_words() = 8 words per station per
/// resolve round, util/simd kernels) against the pre-tiling scalar path
/// (tile = 1 word + forced scalar kernels: one schedule fetch per station
/// per 64-slot block, scalar OR reduction), on the same trials.
///
/// The protocol instance and the per-trial wake patterns are built outside
/// the timed region, so each leg times one trial's schedule emission + OR
/// reduction + outcome scan through `sim::run_wakeup_batch`.  Emission
/// dominates that on most rows, so the speedup column is report-only; the
/// bench verifies per-trial bit-identity between the two paths and exits
/// non-zero only on a mismatch.  Writes BENCH_simd_matrix.json.
///
/// A second, report-only table times `schedule_tile` alone — the hashed
/// word emission — for wakeup_matrix and wakeup_with_k at n = 4096,
/// k = 256 (the crossover preset's largest cells), once with the scalar
/// kernel table and once with the dispatched one; the two tables' words
/// must agree, and a mismatch also sets the exit code.
///
/// Usage: bench_simd_matrix [--quick]   (--quick shrinks trial counts for
/// CI-sized runs)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace wakeup;

namespace {

struct MatrixCell {
  std::string protocol;
  std::uint32_t n;
  std::uint32_t k;
  std::uint64_t trials;
  bool simultaneous = false;     ///< contended long runs vs uniform scatter
  bool full_resolution = false;  ///< drain every station (re-resolve path)
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Timed {
  double seconds = 0;
  std::vector<sim::SimResult> trials;
};

/// Times the trial loop under the current engine configuration.
Timed run_trials(const proto::Protocol& protocol, const std::vector<mac::WakePattern>& patterns,
                 const sim::SimConfig& config) {
  Timed out;
  out.trials.reserve(patterns.size());
  const auto start = std::chrono::steady_clock::now();
  for (const mac::WakePattern& pattern : patterns) {
    out.trials.push_back(sim::run_wakeup_batch(protocol, pattern, config));
  }
  out.seconds = seconds_since(start);
  return out;
}

/// Emitted words of one schedule_tile sweep: `tiles` consecutive 8-word
/// tiles for `stations`, and the seconds it took.
struct Emitted {
  double seconds = 0;
  std::vector<std::uint64_t> words;
};

Emitted emit_tiles(const proto::ObliviousSchedule& schedule,
                   const std::vector<proto::ObliviousSchedule::TileStation>& stations,
                   std::size_t tiles) {
  constexpr std::size_t kWords = 8;
  Emitted out;
  out.words.assign(stations.size() * kWords * tiles, 0);
  std::vector<proto::ObliviousSchedule::TileStation> rows = stations;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < tiles; ++t) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].out_words = out.words.data() + (t * rows.size() + i) * kWords;
    }
    schedule.schedule_tile(rows, static_cast<mac::Slot>(64 * kWords * t), kWords);
  }
  out.seconds = seconds_since(start);
  return out;
}

bool identical(const std::vector<sim::SimResult>& a, const std::vector<sim::SimResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].success != b[i].success || a[i].success_slot != b[i].success_slot ||
        a[i].rounds != b[i].rounds || a[i].winner != b[i].winner ||
        a[i].silences != b[i].silences || a[i].collisions != b[i].collisions ||
        a[i].successes != b[i].successes || a[i].completed != b[i].completed ||
        a[i].completion_slot != b[i].completion_slot) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t t_main = quick ? 64 : 256;
  const std::uint64_t t_large = quick ? 16 : 64;

  const std::vector<MatrixCell> cells = {
      // Doubling-schedule protocols at n = 2^14: simultaneous wake is the
      // contended long-run regime the tile fetch amortizes; the
      // uniform-scatter rows show the short-run end where the tile ramp
      // keeps parity.
      {"wait_and_go", 1 << 14, 64, t_main, true, false},
      {"wakeup_with_k", 1 << 14, 64, t_main, true, false},
      {"wait_and_go", 1 << 14, 64, t_main, false, false},
      {"wakeup_with_k", 1 << 14, 64, t_main, false, false},
      {"select_among_the_first", 1 << 14, 64, t_main, true, false},
      // Frontier rows: SATF at n = 2^17, and a 2^20 cells/s row
      // (station-slot cells resolved per second through the tiled engine).
      {"select_among_the_first", 1 << 17, 64, t_large, true, false},
      {"wait_and_go", 1 << 20, 64, quick ? std::uint64_t{8} : std::uint64_t{16}, true, false},
      // The matrix protocol's regime: simultaneous wake, long row scans,
      // one schedule_tile call per tile sharing the row prefix.
      {"wakeup_matrix", 1 << 14, 256, t_large, true, false},
      // Full resolution: the drain exercises the mid-tile re-resolve.
      {"wait_and_go", 1 << 14, 64, t_large, true, true},
      // Cheap-word counterpoint: tiling still amortizes the per-word fetch.
      {"round_robin", 1 << 14, 64, t_main, false, false},
  };

  bench::JsonReport json("simd_matrix");
  json.config("n", std::uint64_t{1} << 14);
  json.config("trials", t_main);
  json.config("tile_words", std::uint64_t{sim::tile_words()});
  json.config("kernel", util::simd::active_name());
  json.config("quick", quick);

  std::printf("%-24s %8s %5s %7s %5s | %12s %12s | %8s %7s\n", "protocol", "n", "k", "trials",
              "full", "scalar ms/tr", "tiled ms/tr", "speedup", "verify");

  bool verify_ok = true;
  for (const MatrixCell& cell : cells) {
    // Shared cell state, built outside the timed region (a sweep builds it
    // once per cell): protocol and per-trial patterns.
    proto::ProtocolSpec pspec;
    pspec.name = cell.protocol;
    pspec.n = cell.n;
    pspec.k = cell.k;
    pspec.seed = 20130522;
    const proto::ProtocolPtr protocol = proto::make_protocol_by_name(pspec);

    std::vector<mac::WakePattern> patterns;
    patterns.reserve(cell.trials);
    for (std::uint64_t i = 0; i < cell.trials; ++i) {
      util::Rng rng(util::hash_words({0x534d44ULL /* "SMD" */, cell.trials, i}));
      patterns.push_back(
          cell.simultaneous
              ? mac::patterns::simultaneous(cell.n, cell.k, 0, rng)
              : mac::patterns::uniform_window(cell.n, cell.k, 0,
                                              static_cast<mac::Slot>(4) * cell.k, rng));
    }

    sim::SimConfig config;
    config.full_resolution = cell.full_resolution;

    // Baseline: the pre-tiling scalar path (one word per station per
    // block, scalar kernels) — warmed up with one untimed pass.
    sim::set_tile_words(1);
    util::simd::set_force_scalar(true);
    (void)sim::run_wakeup_batch(*protocol, patterns[0], config);
    const Timed scalar = run_trials(*protocol, patterns, config);

    // The tiled SIMD engine (default configuration).
    sim::set_tile_words(0);
    util::simd::set_force_scalar(false);
    (void)sim::run_wakeup_batch(*protocol, patterns[0], config);
    const Timed tiled = run_trials(*protocol, patterns, config);

    const bool ok = identical(scalar.trials, tiled.trials);
    verify_ok = verify_ok && ok;
    const double scalar_ms = scalar.seconds * 1e3 / static_cast<double>(cell.trials);
    const double tiled_ms = tiled.seconds * 1e3 / static_cast<double>(cell.trials);
    const double speedup = tiled.seconds > 0 ? scalar.seconds / tiled.seconds : 0;
    // Station-slot cells resolved per second through the tiled engine: the
    // scale metric of the n = 2^20 frontier row.
    double slot_cells = 0;
    for (const sim::SimResult& r : tiled.trials) {
      if (r.rounds >= 0) {
        slot_cells += static_cast<double>(cell.k) * static_cast<double>(r.rounds + 1);
      }
    }
    const double cells_per_sec = tiled.seconds > 0 ? slot_cells / tiled.seconds : 0.0;
    std::printf("%-24s %8u %5u %7llu %5s | %12.3f %12.3f | %7.2fx %7s\n",
                cell.protocol.c_str(), cell.n, cell.k,
                static_cast<unsigned long long>(cell.trials),
                cell.full_resolution ? "yes" : "no", scalar_ms, tiled_ms, speedup,
                ok ? "ok" : "MISMATCH");
    json.row({{"protocol", cell.protocol},
              {"n", cell.n},
              {"k", cell.k},
              {"trials", cell.trials},
              {"full_resolution", cell.full_resolution},
              {"scalar_ms_per_trial", scalar_ms},
              {"tiled_ms_per_trial", tiled_ms},
              {"throughput_trials_per_sec",
               tiled.seconds > 0 ? static_cast<double>(cell.trials) / tiled.seconds : 0.0},
              {"cells_per_sec", cells_per_sec},
              {"speedup", speedup},
              {"bit_identical", ok}});
  }

  // Emission alone: schedule_tile over k = 256 simultaneous stations, per
  // kernel table.  Report-only timings; the tables' words must agree.
  std::printf("\n%-24s %8s %5s %7s | %12s %12s | %8s %7s\n", "schedule_tile", "n", "k", "tiles",
              "scalar ns/w", "active ns/w", "speedup", "verify");
  const std::size_t tiles = quick ? 8 : 64;
  for (const char* name : {"wakeup_matrix", "wakeup_with_k"}) {
    proto::ProtocolSpec pspec;
    pspec.name = name;
    pspec.n = 4096;
    pspec.k = 256;
    pspec.seed = 20130522;
    const proto::ProtocolPtr protocol = proto::make_protocol_by_name(pspec);
    util::Rng rng(util::hash_words({0x534d44ULL /* "SMD" */, 4096, 256}));
    const mac::WakePattern pattern = mac::patterns::simultaneous(4096, 256, 0, rng);
    std::vector<proto::ObliviousSchedule::TileStation> stations;
    for (const mac::Arrival& a : pattern.arrivals()) stations.push_back({a.station, a.wake, nullptr});
    const proto::ObliviousSchedule& schedule = *protocol->oblivious_schedule();

    util::simd::set_force_scalar(true);
    (void)emit_tiles(schedule, stations, 1);
    const Emitted scalar = emit_tiles(schedule, stations, tiles);
    util::simd::set_force_scalar(false);
    (void)emit_tiles(schedule, stations, 1);
    const Emitted active = emit_tiles(schedule, stations, tiles);

    const bool ok = scalar.words == active.words;
    verify_ok = verify_ok && ok;
    const auto n_words = static_cast<double>(scalar.words.size());
    const double scalar_ns = scalar.seconds * 1e9 / n_words;
    const double active_ns = active.seconds * 1e9 / n_words;
    const double speedup = active.seconds > 0 ? scalar.seconds / active.seconds : 0;
    std::printf("%-24s %8u %5u %7zu | %12.2f %12.2f | %7.2fx %7s\n", name, 4096u, 256u, tiles,
                scalar_ns, active_ns, speedup, ok ? "ok" : "MISMATCH");
    json.row({{"protocol", std::string(name) + "/schedule_tile"},
              {"n", 4096u},
              {"k", 256u},
              {"tiles", std::uint64_t{tiles}},
              {"kernel", util::simd::active_name()},
              {"scalar_ns_per_word", scalar_ns},
              {"active_ns_per_word", active_ns},
              {"speedup", speedup},
              {"bit_identical", ok}});
  }

  std::printf("\nspeedups are report-only; bit-identity: %s\n", verify_ok ? "PASS" : "FAIL");
  json.config("bit_identity_pass", verify_ok);
  json.write();
  return verify_ok ? 0 : 1;
}
