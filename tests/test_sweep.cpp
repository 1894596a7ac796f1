/// Sweep orchestration subsystem (src/exp/): grid expansion determinism,
/// axis grammar, validation messages, streaming aggregation vs a naive
/// reference, manifest round-trips (incl. torn tails), resume-equals-fresh
/// byte identity, oversubscription-safe cell sharding, and a concurrent
/// TrialCsvSink stress.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/manifest.hpp"
#include "exp/presets.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/sweep_spec.hpp"
#include "sim/results_sink.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace we = wakeup::exp;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;

namespace {

/// Small grid that still exercises several protocols/patterns: 2 x 2 x 2
/// x 1 x 1 = 8 cells, seconds-scale.
we::SweepSpec small_spec() {
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_with_k"};
  spec.ns = {64, 128};
  spec.ks = {2, 4};
  spec.patterns = {we::PatternKind::kUniform};
  spec.trials = 6;
  spec.base_seed = 11;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("wakeup_sweep_test_" + name)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ws::SimResult trial_result(bool success, std::int64_t rounds, std::uint64_t collisions,
                           std::uint64_t silences) {
  ws::SimResult r;
  r.success = success;
  r.rounds = rounds;
  r.collisions = collisions;
  r.silences = silences;
  return r;
}

}  // namespace

// ------------------------------------------------------- grid expansion --

TEST(SweepSpec, ExpansionIsDeterministicAndStablyOrdered) {
  const auto a = we::expand(small_spec());
  const auto b = we::expand(small_spec());
  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].tag_hash, b[i].tag_hash);
    EXPECT_EQ(a[i].index, i);
  }
  // Protocol-major order, then n, then k.
  EXPECT_EQ(a[0].protocol, "round_robin");
  EXPECT_EQ(a[0].n, 64u);
  EXPECT_EQ(a[0].k, 2u);
  EXPECT_EQ(a[1].k, 4u);
  EXPECT_EQ(a[2].n, 128u);
  EXPECT_EQ(a[4].protocol, "wakeup_with_k");
}

TEST(SweepSpec, CellIdentityIsIndependentOfTheRestOfTheGrid) {
  // The reproducibility contract: a cell's tag/seed depend only on its own
  // coordinates, so any subset of cells (a resumed run, a single re-run
  // cell) reproduces the full sweep bit-identically.
  auto spec = small_spec();
  const auto full = we::expand(spec);
  spec.protocols = {"wakeup_with_k"};
  spec.ns = {128};
  spec.ks = {4};
  const auto solo = we::expand(spec);
  ASSERT_EQ(solo.size(), 1u);
  const auto match = std::find_if(full.begin(), full.end(), [&](const we::Cell& cell) {
    return cell.tag == solo[0].tag;
  });
  ASSERT_NE(match, full.end());
  EXPECT_EQ(match->tag_hash, solo[0].tag_hash);
  // And the trial seeds derived from it agree with the facade's contract.
  EXPECT_EQ(ws::trial_seed(spec.base_seed, match->tag_hash, 3),
            ws::trial_seed(spec.base_seed, solo[0].tag_hash, 3));
}

TEST(SweepSpec, InfeasibleKCellsAreDropped) {
  auto spec = small_spec();
  spec.ns = {4, 64};
  spec.ks = {2, 32};
  const auto cells = we::expand(spec);
  for (const auto& cell : cells) EXPECT_LE(cell.k, cell.n);
  // 2 protocols x {(4,2),(64,2),(64,32)}.
  EXPECT_EQ(cells.size(), 6u);
}

TEST(SweepSpec, UnknownProtocolGetsAFriendlyError) {
  auto spec = small_spec();
  spec.protocols = {"round_robbin"};
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("round_robbin"), std::string::npos);
    EXPECT_NE(what.find("round_robin"), std::string::npos);  // the registry listing
    EXPECT_NE(what.find("wakeup_cli list"), std::string::npos);
  }
}

TEST(SweepSpec, BatchEngineOnNonObliviousProtocolRejectedUpFront) {
  auto spec = small_spec();
  spec.protocols = {"slotted_aloha"};
  spec.engines = {ws::Engine::kBatch};
  EXPECT_THROW((void)we::expand(spec), std::invalid_argument);
}

TEST(SweepSpec, AdversarialPatternIsSingleChannelOnly) {
  auto spec = small_spec();
  spec.patterns = {we::PatternKind::kAdversarial};
  spec.channels = {1, 4};
  EXPECT_THROW((void)we::expand(spec), std::invalid_argument);
}

TEST(SweepSpec, ImpairmentAxisMultipliesCellsAndTagsOnlyImpairedOnes) {
  auto spec = small_spec();
  spec.impairments = {"none", "noise:iid:0.05", "jam:budget:16:random"};
  const auto cells = we::expand(spec);
  ASSERT_EQ(cells.size(), 24u);  // 8 base cells x 3 impairment values
  std::size_t clean = 0, tagged = 0;
  for (const auto& cell : cells) {
    if (cell.impairment.clean()) {
      ++clean;
      // Clean cells keep the pre-impairment tag text, so their seeds (and
      // resumed manifests) are unchanged by the axis existing.
      EXPECT_EQ(cell.tag.find("impairment="), std::string::npos) << cell.tag;
    } else {
      ++tagged;
      EXPECT_NE(cell.tag.find(",impairment=" + cell.impairment.name()),
                std::string::npos)
          << cell.tag;
    }
  }
  EXPECT_EQ(clean, 8u);
  EXPECT_EQ(tagged, 16u);
  // The clean slice is tag-identical to a grid with no impairment axis.
  const auto base = we::expand(small_spec());
  for (const auto& cell : base) {
    EXPECT_TRUE(std::any_of(cells.begin(), cells.end(),
                            [&](const we::Cell& c) { return c.tag == cell.tag; }))
        << cell.tag;
  }
}

TEST(SweepSpec, FaultClausesOnStaticGridNameTheOffendingValue) {
  auto spec = small_spec();
  spec.impairments = {"noise:iid:0.05", "crash:0.25+byzantine:0.1"};
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("crash:0.25+byzantine:0.1"), std::string::npos) << what;
    EXPECT_NE(what.find("dynamic"), std::string::npos) << what;
  }
}

TEST(SweepSpec, AdversarialJamOnDynamicGridNamesTheOffendingValue) {
  we::SweepSpec spec;
  spec.protocols = {"round_robin"};
  spec.ns = {64};
  spec.ks = {4};
  spec.trials = 4;
  spec.arrivals = {wakeup::mac::ArrivalSpec::parse("poisson:0.2")};
  spec.horizon = 256;
  spec.impairments = {"jam:budget:8:adversarial"};
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("jam:budget:8:adversarial"), std::string::npos) << what;
    EXPECT_NE(what.find("front/spread/random"), std::string::npos) << what;
  }
}

TEST(SweepSpec, AdversarialJamOnMultichannelGridNamesTheOffendingValue) {
  auto spec = small_spec();
  spec.channels = {4};
  spec.impairments = {"jam:budget:8:adversarial"};
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("jam:budget:8:adversarial"), std::string::npos) << what;
    EXPECT_NE(what.find("single-channel"), std::string::npos) << what;
  }
}

TEST(SweepSpec, StaticOnlyProtocolOnArrivalAxisNamesTheValues) {
  we::SweepSpec spec;
  spec.protocols = {"select_among_the_first"};
  spec.ns = {64};
  spec.ks = {4};
  spec.trials = 4;
  spec.arrivals = {wakeup::mac::ArrivalSpec::parse("poisson:0.2"),
                   wakeup::mac::ArrivalSpec::parse("bursty:0.5:0.05")};
  spec.horizon = 256;
  try {
    (void)we::expand(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("select_among_the_first"), std::string::npos) << what;
    // The message must name the axis *values* forcing dynamic mode, not
    // just say "the arrival axis".
    EXPECT_NE(what.find("poisson:0.2"), std::string::npos) << what;
    EXPECT_NE(what.find("bursty:0.5:0.05"), std::string::npos) << what;
  }
}

TEST(SweepSpec, AxisGrammar) {
  EXPECT_EQ(we::parse_axis_u32("2^10..2^13"),
            (std::vector<std::uint32_t>{1024, 2048, 4096, 8192}));
  EXPECT_EQ(we::parse_axis_u32("1,8,64"), (std::vector<std::uint32_t>{1, 8, 64}));
  EXPECT_EQ(we::parse_axis_u32("2^5"), (std::vector<std::uint32_t>{32}));
  EXPECT_EQ(we::parse_axis_u32("3..24"), (std::vector<std::uint32_t>{3, 6, 12, 24}));
  EXPECT_EQ(we::parse_axis_u32("16, 2^6..2^7"), (std::vector<std::uint32_t>{16, 64, 128}));
  EXPECT_THROW((void)we::parse_axis_u32(""), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("abc"), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("3^4"), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("8..2"), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("0"), std::invalid_argument);
  EXPECT_THROW((void)we::parse_axis_u32("2^33"), std::invalid_argument);
}

TEST(SweepSpec, GridFingerprintPinsSpecAndSeed) {
  const auto cells = we::expand(small_spec());
  EXPECT_EQ(we::grid_fingerprint(cells, 11), we::grid_fingerprint(cells, 11));
  EXPECT_NE(we::grid_fingerprint(cells, 11), we::grid_fingerprint(cells, 12));
  auto bigger = small_spec();
  bigger.ks = {2, 4, 8};
  EXPECT_NE(we::grid_fingerprint(we::expand(bigger), 11), we::grid_fingerprint(cells, 11));
}

// ----------------------------------------------------------- aggregator --

TEST(Aggregator, MatchesNaiveReferenceAndIgnoresAddOrder) {
  // Known samples: successes {10, 20, 30, 40} + one failure.
  const std::vector<ws::SimResult> trials = {
      trial_result(true, 10, 1, 100), trial_result(true, 20, 2, 200),
      trial_result(false, -1, 9, 900), trial_result(true, 30, 3, 300),
      trial_result(true, 40, 4, 400),
  };
  we::Aggregator forward(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) forward.add(i, trials[i]);
  we::Aggregator backward(trials.size());
  for (std::size_t i = trials.size(); i-- > 0;) backward.add(i, trials[i]);

  const we::CellStats stats = forward.finalize(500, 42);
  EXPECT_EQ(stats.trials, 5u);
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.8);
  EXPECT_EQ(stats.rounds.count, 4u);
  EXPECT_DOUBLE_EQ(stats.rounds.mean, 25.0);
  EXPECT_DOUBLE_EQ(stats.rounds.median, 25.0);
  EXPECT_DOUBLE_EQ(stats.rounds.min, 10.0);
  EXPECT_DOUBLE_EQ(stats.rounds.max, 40.0);
  EXPECT_DOUBLE_EQ(stats.rounds.p95, 38.5);  // linear interpolation
  EXPECT_DOUBLE_EQ(stats.collisions.mean, 2.5);
  EXPECT_DOUBLE_EQ(stats.silences.mean, 250.0);
  EXPECT_LE(stats.rounds_mean_ci.lo, stats.rounds.mean);
  EXPECT_GE(stats.rounds_mean_ci.hi, stats.rounds.mean);
  EXPECT_LE(stats.rounds_median_ci.lo, stats.rounds.median);
  EXPECT_GE(stats.rounds_median_ci.hi, stats.rounds.median);

  // Trial-indexed storage: completion order cannot move any statistic
  // (this is what makes sweep reports thread-count-independent).
  const we::CellStats reversed = backward.finalize(500, 42);
  EXPECT_DOUBLE_EQ(reversed.rounds_mean_ci.lo, stats.rounds_mean_ci.lo);
  EXPECT_DOUBLE_EQ(reversed.rounds_mean_ci.hi, stats.rounds_mean_ci.hi);
  EXPECT_DOUBLE_EQ(reversed.rounds_median_ci.lo, stats.rounds_median_ci.lo);
  EXPECT_DOUBLE_EQ(reversed.rounds_median_ci.hi, stats.rounds_median_ci.hi);
}

TEST(Aggregator, ZeroResamplesDegeneratesCIs) {
  we::Aggregator agg(2);
  agg.add(0, trial_result(true, 10, 0, 0));
  agg.add(1, trial_result(true, 30, 0, 0));
  const we::CellStats stats = agg.finalize(0, 1);
  EXPECT_DOUBLE_EQ(stats.rounds_mean_ci.lo, 20.0);
  EXPECT_DOUBLE_EQ(stats.rounds_mean_ci.hi, 20.0);
}

TEST(Aggregator, CompletionCountsCompletedTrialsAndEnergyCountsFailedOnes) {
  // Full resolution: trials 0 and 3 drain (completion 12 and 20), trial 1
  // wakes up but does not drain, trial 2 exhausts its budget.  Energy
  // (stations' slots) lands for all four, the failed trial included.
  std::vector<ws::SimResult> trials = {
      trial_result(true, 4, 0, 0), trial_result(true, 6, 0, 0),
      trial_result(false, -1, 0, 0), trial_result(true, 2, 0, 0)};
  trials[0].completed = true;
  trials[0].completion_rounds = 12;
  trials[3].completed = true;
  trials[3].completion_rounds = 20;
  trials[0].station_energy = {3, 5};     // mean 4, max 5
  trials[1].station_energy = {6, 6, 9};  // mean 7, max 9
  trials[2].station_energy = {10, 20};   // mean 15, max 20
  trials[3].station_energy = {1};        // mean 1, max 1
  we::Aggregator agg(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) agg.add(i, trials[i]);

  const we::CellStats stats = agg.finalize();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.75);
  EXPECT_EQ(stats.rounds.count, 3u);
  EXPECT_DOUBLE_EQ(stats.rounds.mean, 4.0);
  EXPECT_EQ(stats.completion.count, 2u);
  EXPECT_DOUBLE_EQ(stats.completion.mean, 16.0);
  EXPECT_DOUBLE_EQ(stats.completion.min, 12.0);
  EXPECT_DOUBLE_EQ(stats.completion.max, 20.0);
  EXPECT_EQ(stats.energy_mean.count, 4u);
  EXPECT_DOUBLE_EQ(stats.energy_mean.mean, 6.75);  // (4 + 7 + 15 + 1) / 4
  EXPECT_DOUBLE_EQ(stats.energy_mean.max, 15.0);
  EXPECT_EQ(stats.energy_max.count, 4u);
  EXPECT_DOUBLE_EQ(stats.energy_max.mean, 8.75);  // (5 + 9 + 20 + 1) / 4
  EXPECT_DOUBLE_EQ(stats.energy_max.max, 20.0);
  EXPECT_DOUBLE_EQ(stats.energy_mean_ci.lo, 6.75);  // no resamples
  EXPECT_DOUBLE_EQ(stats.energy_mean_ci.hi, 6.75);
}

TEST(Aggregator, DynamicPoolsLatencyInTrialOrderAndSumsCounts) {
  const auto dynamic_result = [](std::uint64_t arrivals, std::uint64_t delivered,
                                 std::uint64_t collisions, std::uint64_t silences,
                                 std::vector<std::uint64_t> per_station,
                                 std::vector<double> latency,
                                 std::vector<std::uint64_t> energy) {
    ws::DynamicResult r;
    r.horizon = 10;
    r.arrivals = arrivals;
    r.delivered = delivered;
    r.backlog = arrivals - delivered;
    r.collisions = collisions;
    r.silences = silences;
    r.delivered_per_station = std::move(per_station);
    r.latency = std::move(latency);
    r.station_energy = std::move(energy);
    return r;
  };
  // Throughput 0.3 / 0.2 / 0.1, Jain 0.9 / 1 / 0.5, energy means 10 / 5 /
  // 6 and maxima 10 / 6 / 10.
  const std::vector<ws::DynamicResult> trials = {
      dynamic_result(4, 3, 2, 5, {2, 1}, {1, 3, 8}, {10, 10}),
      dynamic_result(2, 2, 1, 7, {1, 1}, {2, 4}, {4, 6}),
      dynamic_result(5, 1, 6, 3, {1, 0}, {20}, {10, 2}),
  };
  we::Aggregator forward(trials.size(), /*dynamic=*/true);
  for (std::size_t i = 0; i < trials.size(); ++i) forward.add(i, trials[i]);
  we::Aggregator backward(trials.size(), /*dynamic=*/true);
  for (std::size_t i = trials.size(); i-- > 0;) backward.add(i, trials[i]);

  const we::CellStats stats = forward.finalize(500, 42);
  EXPECT_EQ(stats.trials, 3u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_DOUBLE_EQ(stats.success_rate, 1.0);
  EXPECT_EQ(stats.rounds.count, 0u);
  EXPECT_EQ(stats.packet_arrivals, 11u);
  EXPECT_EQ(stats.delivered, 6u);
  EXPECT_EQ(stats.backlog, 5u);
  EXPECT_DOUBLE_EQ(stats.throughput.mean, 0.2);
  EXPECT_DOUBLE_EQ(stats.jain.mean, 0.8);
  EXPECT_DOUBLE_EQ(stats.collisions.mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.silences.mean, 5.0);
  // Latency pools every delivered packet: {1, 3, 8, 2, 4, 20}.
  EXPECT_EQ(stats.latency.count, 6u);
  EXPECT_DOUBLE_EQ(stats.latency.mean, 38.0 / 6.0);
  EXPECT_DOUBLE_EQ(stats.latency.median, 3.5);
  EXPECT_DOUBLE_EQ(stats.latency.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.latency.max, 20.0);
  EXPECT_DOUBLE_EQ(stats.energy_mean.mean, 7.0);
  EXPECT_DOUBLE_EQ(stats.energy_max.mean, 26.0 / 3.0);
  EXPECT_LE(stats.rounds_mean_ci.lo, stats.throughput.mean);
  EXPECT_GE(stats.rounds_mean_ci.hi, stats.throughput.mean);

  // Samples are read in trial order whatever the add order: 0.3 + 0.2 +
  // 0.1 and 0.1 + 0.2 + 0.3 round differently, so the throughput mean
  // would move by an ulp.
  const we::CellStats reversed = backward.finalize(500, 42);
  EXPECT_EQ(reversed.throughput.mean, stats.throughput.mean);
  EXPECT_EQ(reversed.latency.mean, stats.latency.mean);
  EXPECT_EQ(reversed.latency.p95, stats.latency.p95);
  EXPECT_EQ(reversed.packet_arrivals, stats.packet_arrivals);
  EXPECT_EQ(reversed.rounds_mean_ci.lo, stats.rounds_mean_ci.lo);
  EXPECT_EQ(reversed.rounds_mean_ci.hi, stats.rounds_mean_ci.hi);
  EXPECT_EQ(reversed.rounds_median_ci.lo, stats.rounds_median_ci.lo);
  EXPECT_EQ(reversed.energy_mean_ci.hi, stats.energy_mean_ci.hi);
}

// -------------------------------------------------------------- manifest --

TEST(Manifest, JsonDoubleSpellsPrintfDigits) {
  // json_double must write exactly the digits of printf's "%.17g" (the
  // manifest and report bytes), over random bit patterns and the families
  // where a formatter is most likely to differ.
  std::vector<double> corpus = {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::epsilon()};
  wu::Rng rng(99);
  for (int i = 0; i < 200000; ++i) corpus.push_back(std::bit_cast<double>(rng.next_u64()));
  for (int i = 0; i < 20000; ++i) {  // subnormals: exponent field 0
    corpus.push_back(std::bit_cast<double>(rng.next_u64() & ((std::uint64_t{1} << 52) - 1)));
  }
  for (std::int64_t v = -2000; v <= 2000; ++v) corpus.push_back(static_cast<double>(v));
  for (int i = 0; i < 20000; ++i) {
    corpus.push_back(static_cast<double>(rng.uniform(std::uint64_t{1} << 53)));
  }
  for (int e = 50; e <= 64; ++e) {
    const double p = std::ldexp(1.0, e);
    corpus.insert(corpus.end(), {p - 1, p, p + 1, std::nextafter(p, 0.0)});
  }
  for (int k = 0; k <= 120; ++k) {
    for (int m = 1; m <= 120; ++m) corpus.push_back(static_cast<double>(k) / m);
  }
  for (int e = -330; e <= 330; ++e) {
    const double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    corpus.insert(corpus.end(), {p, -p, std::nextafter(p, 0.0), std::nextafter(p, 1e300)});
  }
  std::size_t finite = 0;
  for (const double v : corpus) {
    if (!std::isfinite(v)) {
      EXPECT_EQ(we::json_double(v), "null");
      continue;
    }
    ++finite;
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.17g", v);
    ASSERT_EQ(we::json_double(v), expected) << std::bit_cast<std::uint64_t>(v);
  }
  EXPECT_GT(finite, 200000u);
  EXPECT_EQ(we::json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(we::json_double(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Manifest, RecordRoundTrips) {
  const auto cells = we::expand(small_spec());
  we::CellRecord record;
  record.cell = cells[3];
  record.stats.trials = 6;
  record.stats.failures = 1;
  record.stats.success_rate = 5.0 / 6.0;
  record.stats.rounds.count = 5;
  record.stats.rounds.mean = 12.3456789012345678;
  record.stats.rounds.median = 11.5;
  record.stats.rounds.p95 = 19.25;
  record.stats.rounds.max = 21.0;
  record.stats.rounds_mean_ci = {12.34, 10.0, 15.0, 0.95};
  record.stats.rounds_median_ci = {11.5, 9.0, 14.0, 0.95};
  record.bound = 36.0;
  record.normalized_mean = record.stats.rounds.mean / record.bound;
  // Strings that need every escape the writer emits: quote, backslash and
  // each control byte 0x01..0x1f.
  std::string controls;
  for (char c = 0x01; c < 0x20; ++c) controls += c;
  record.cell.tag += ",note=\"q\"\\" + controls;
  record.cell.tag_hash = we::tag_hash(record.cell.tag);
  record.cell.protocol = "p\\\"" + controls + "\"";

  const we::CellRecord parsed = we::parse_manifest_line(we::manifest_line(record));
  EXPECT_EQ(parsed.cell.tag, record.cell.tag);
  EXPECT_EQ(parsed.cell.tag_hash, record.cell.tag_hash);
  EXPECT_EQ(parsed.cell.protocol, record.cell.protocol);
  EXPECT_EQ(parsed.cell.n, record.cell.n);
  EXPECT_EQ(parsed.cell.k, record.cell.k);
  EXPECT_EQ(parsed.cell.index, record.cell.index);
  EXPECT_EQ(parsed.stats.failures, record.stats.failures);
  // %.17g round-trips doubles exactly — the keystone of resume identity.
  EXPECT_EQ(parsed.stats.rounds.mean, record.stats.rounds.mean);
  EXPECT_EQ(parsed.stats.success_rate, record.stats.success_rate);
  EXPECT_EQ(parsed.stats.rounds_mean_ci.lo, record.stats.rounds_mean_ci.lo);
  EXPECT_EQ(parsed.stats.rounds_median_ci.hi, record.stats.rounds_median_ci.hi);
  EXPECT_EQ(parsed.bound, record.bound);
  EXPECT_EQ(parsed.normalized_mean, record.normalized_mean);
}

TEST(Manifest, ScannerRejectsMalformedEscapesAndSignedIntegers) {
  // Resume reads these lines back, so a malformed one must throw the
  // scanner's runtime_error rather than decode to other bytes: a \u escape
  // is exactly four hex digits naming one byte (the writer emits only
  // \u00XX), no other escape but \" and \\ exists, and integers carry no
  // sign.
  const auto expect_error = [](const auto& parse, const std::string& input,
                               const std::string& what) {
    try {
      parse();
      ADD_FAILURE() << "accepted " << input;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    } catch (...) {
      ADD_FAILURE() << "wrong exception type for " << input;
    }
  };
  for (const std::string line :
       {R"({"tag":"a\u00zz"})", R"({"tag":"\u0141"})", R"({"tag":"\uzz00"})",
        R"({"tag":"\u00"})", R"({"tag":"\n"})"}) {
    expect_error([&] { (void)we::detail::parse_flat_object(line); }, line,
                 "manifest: malformed line");
  }
  for (const std::string value : {"-1", "+1", "1x", "", "18446744073709551616"}) {
    const std::map<std::string, std::string> fields{{"n", value}};
    expect_error([&] { (void)we::detail::field_u64(fields, "n"); }, value, "bad integer");
  }
  // What the writer emits still decodes.
  EXPECT_EQ(we::detail::parse_flat_object(R"({"tag":"a\u001f\"\\b"})").at("tag"),
            "a\x1f\"\\b");
  EXPECT_EQ(we::detail::field_u64({{"n", "18446744073709551615"}}, "n"),
            18446744073709551615ull);
}

TEST(Manifest, TornTailIsDroppedMidFileDamageThrows) {
  const auto cells = we::expand(small_spec());
  we::CellRecord record;
  record.cell = cells[0];
  record.stats.trials = 6;

  const std::string dir = fresh_dir("torn");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string path = dir + "/manifest.jsonl";
  {
    we::ManifestHeader header;
    header.base_seed = 11;
    header.grid_hash = we::grid_fingerprint(cells, 11);
    header.cells = cells.size();
    we::ManifestWriter writer(path, header, /*append=*/false);
    writer.append(record);
  }
  {  // tear the tail: a kill mid-append
    std::ofstream out(path, std::ios::app);
    out << "{\"tag\":\"protocol=trunc";
  }
  const we::ManifestData data = we::load_manifest(path);
  EXPECT_EQ(data.by_tag.size(), 1u);
  EXPECT_EQ(data.dropped_lines, 1u);
  EXPECT_EQ(data.header.cells, cells.size());

  {  // damage BEFORE the last line is corruption, not a torn tail
    std::ofstream out(path, std::ios::app);
    out << "\n" << we::manifest_line(record) << "\n";
  }
  EXPECT_THROW((void)we::load_manifest(path), std::runtime_error);
}

// ------------------------------------------------------------ run_sweep --

TEST(SweepRunner, ResumeEqualsFreshByteIdentically) {
  const auto spec = small_spec();
  we::SweepOptions fresh;
  fresh.out_dir = fresh_dir("fresh");
  fresh.ci_resamples = 200;
  const auto full = we::run_sweep(spec, fresh);
  ASSERT_TRUE(full.completed);
  EXPECT_EQ(full.cells_run, 8u);

  we::SweepOptions interrupted;
  interrupted.out_dir = fresh_dir("resumed");
  interrupted.ci_resamples = 200;
  interrupted.max_cells = 3;  // simulated mid-grid kill
  const auto partial = we::run_sweep(spec, interrupted);
  EXPECT_FALSE(partial.completed);
  EXPECT_EQ(partial.cells_run, 3u);
  EXPECT_EQ(partial.cells_remaining, 5u);

  interrupted.max_cells = 0;
  interrupted.resume = true;
  const auto resumed = we::run_sweep(spec, interrupted);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.cells_resumed, 3u);
  EXPECT_EQ(resumed.cells_run, 5u);

  EXPECT_EQ(slurp(full.csv_path), slurp(resumed.csv_path));
  EXPECT_EQ(slurp(full.json_path), slurp(resumed.json_path));
  // Lines land in grid order at any thread count, and the capped run
  // took the first cells of the grid, so the manifests match byte for byte.
  EXPECT_EQ(slurp(full.manifest_path), slurp(resumed.manifest_path));
}

TEST(SweepRunner, ResumeRepairsATornManifestTail) {
  // A real kill can land mid-append, leaving a partial trailing line.  The
  // resumed writer must not glue its first record onto the fragment: the
  // torn cell re-runs, the manifest stays parseable line by line, and the
  // final report is still byte-identical to a fresh run.
  const auto spec = small_spec();
  we::SweepOptions fresh;
  fresh.out_dir = fresh_dir("torn_fresh");
  fresh.ci_resamples = 100;
  const auto full = we::run_sweep(spec, fresh);
  ASSERT_TRUE(full.completed);

  we::SweepOptions torn;
  torn.out_dir = fresh_dir("torn_resume");
  torn.ci_resamples = 100;
  torn.max_cells = 4;
  (void)we::run_sweep(spec, torn);
  {  // tear the tail mid-record, no trailing newline
    std::ofstream out(torn.out_dir + "/manifest.jsonl", std::ios::app);
    out << "{\"tag\":\"protocol=round_ro";
  }
  torn.max_cells = 0;
  torn.resume = true;
  const auto resumed = we::run_sweep(spec, torn);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.cells_resumed, 4u);
  EXPECT_EQ(slurp(full.csv_path), slurp(resumed.csv_path));
  EXPECT_EQ(slurp(full.json_path), slurp(resumed.json_path));
  // Every manifest line parses — no glued/torn lines survived — and a
  // THIRD pass (e.g. another kill later) still resumes cleanly.
  const auto data = we::load_manifest(resumed.manifest_path);
  EXPECT_EQ(data.by_tag.size(), 8u);
  EXPECT_EQ(data.dropped_lines, 0u);
}

TEST(SweepRunnerDeathTest, SigkilledSweepResumesToIdenticalReports) {
  // A real kill, not a --max-cells cap: the child sweep SIGKILLs itself
  // from its heartbeat after the 5th cell.  "threadsafe" runs the child as
  // a fresh exec of this binary rather than a fork of a process that may
  // already own pool threads.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const we::SweepSpec spec = we::make_preset("figure-scenario-b");
  wu::ThreadPool inline_pool(0);  // cells in grid order on the caller
  const auto options_for = [&inline_pool](const std::string& dir) {
    we::SweepOptions options;
    options.out_dir = dir;
    options.ci_resamples = 200;
    options.pool = &inline_pool;
    return options;
  };
  const std::string dir = fresh_dir("killed");
  EXPECT_EXIT(
      {
        we::SweepOptions options = options_for(dir);
        options.heartbeat_cells = 1;
        options.heartbeat = [](const we::SweepHeartbeat& hb) {
          if (hb.completed == 5) std::raise(SIGKILL);
        };
        (void)we::run_sweep(spec, options);
      },
      ::testing::KilledBySignal(SIGKILL), "");

  // Each record is flushed before its heartbeat, so the manifest holds the
  // header and exactly the five finished cells.
  const std::string manifest = slurp(dir + "/manifest.jsonl");
  EXPECT_EQ(std::count(manifest.begin(), manifest.end(), '\n'), 6);
  EXPECT_EQ(we::load_manifest(dir + "/manifest.jsonl").by_tag.size(), 5u);

  we::SweepOptions resume = options_for(dir);
  resume.resume = true;
  const auto resumed = we::run_sweep(spec, resume);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.cells_resumed, 5u);
  EXPECT_EQ(resumed.cells_run, resumed.cells_total - 5);

  const auto fresh = we::run_sweep(spec, options_for(fresh_dir("killed_fresh")));
  ASSERT_TRUE(fresh.completed);
  EXPECT_EQ(slurp(fresh.csv_path), slurp(resumed.csv_path));
  EXPECT_EQ(slurp(fresh.json_path), slurp(resumed.json_path));
  // One inline pool runs the cells in grid order, so even the manifests
  // match byte for byte.
  EXPECT_EQ(slurp(fresh.manifest_path), slurp(resumed.manifest_path));
}

TEST(SweepRunner, ManifestLinesFollowTheGridAtAnyThreadCount) {
  // A cell-sharded sweep finishes cells out of grid order (the first cell,
  // k = 256 of n = 4096 stations waking at once, takes far longer than the
  // k = 2 cells after it), but appends each line only once every earlier
  // cell's is out: its manifest is byte-identical to the inline sweep's.
  we::SweepSpec spec;
  spec.protocols = {"wakeup_matrix"};
  spec.ns = {4096, 64, 96, 128};
  spec.ks = {256, 2};
  spec.patterns = {we::PatternKind::kSimultaneous};
  spec.trials = 48;
  spec.base_seed = 11;
  const auto run_with = [&spec](const std::string& dir, std::size_t workers) {
    wu::ThreadPool pool(workers);
    we::SweepOptions options;
    options.out_dir = fresh_dir(dir);
    options.ci_resamples = 100;
    options.pool = &pool;
    options.sharding = workers == 0 ? we::Sharding::kTrials : we::Sharding::kCells;
    const auto outcome = we::run_sweep(spec, options);
    EXPECT_TRUE(outcome.completed) << dir;
    return outcome;
  };
  const auto inline_outcome = run_with("grid_order_inline", 0);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto sharded = run_with("grid_order_4_workers", 4);
    EXPECT_EQ(slurp(inline_outcome.manifest_path), slurp(sharded.manifest_path))
        << "repeat " << repeat;
    EXPECT_EQ(slurp(inline_outcome.csv_path), slurp(sharded.csv_path));
  }
  // Grid order: the records' tags in the order expand() lists the cells.
  std::ifstream in(inline_outcome.manifest_path);
  std::string line;
  std::getline(in, line);  // header
  for (const we::Cell& cell : we::expand(spec)) {
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"tag\":\"" + cell.tag + "\""), std::string::npos) << cell.tag;
  }
}

TEST(SweepRunner, ZeroWorkerPoolStaysInlineOnTheCellShardedPath) {
  // --threads=0 means "no worker threads anywhere": a 0-worker pool runs
  // parallel_for on the caller (NOT a worker thread), so the cell-sharded
  // path must hand the inline pool to the nested Runs instead of letting
  // them fall through to the multi-threaded shared pool.  Exercises that
  // branch and pins byte-identity against the trial-sharded inline run.
  const auto spec = small_spec();
  wu::ThreadPool pool0(0);

  we::SweepOptions cells_mode;
  cells_mode.out_dir = fresh_dir("zero_worker_cells");
  cells_mode.ci_resamples = 100;
  cells_mode.pool = &pool0;
  cells_mode.sharding = we::Sharding::kCells;
  const auto via_cells = we::run_sweep(spec, cells_mode);
  ASSERT_TRUE(via_cells.completed);

  we::SweepOptions trials_mode;
  trials_mode.out_dir = fresh_dir("zero_worker_trials");
  trials_mode.ci_resamples = 100;
  trials_mode.pool = &pool0;
  trials_mode.sharding = we::Sharding::kTrials;
  const auto via_trials = we::run_sweep(spec, trials_mode);
  EXPECT_EQ(slurp(via_cells.csv_path), slurp(via_trials.csv_path));
  EXPECT_EQ(slurp(via_cells.json_path), slurp(via_trials.json_path));
}

TEST(SweepRunner, ResumeRefusesAForeignManifest) {
  auto spec = small_spec();
  we::SweepOptions options;
  options.out_dir = fresh_dir("foreign");
  options.ci_resamples = 50;
  (void)we::run_sweep(spec, options);
  spec.base_seed = 999;  // different seed => different grid fingerprint seeding
  options.resume = true;
  EXPECT_THROW((void)we::run_sweep(spec, options), std::runtime_error);
}

TEST(SweepRunner, CellShardedNestedRunsStayInline) {
  // The oversubscription guard on the cell-sharded path: cells are pool
  // tasks, and the sim::Run inside each worker must detect the pool via
  // ThreadPool::current() and run its trials inline.  With ONE worker,
  // queueing trials back on the pool would deadlock — completion is the
  // proof — and the report must be bitwise identical to the inline run.
  const auto spec = small_spec();

  we::SweepOptions inline_run;
  inline_run.out_dir = fresh_dir("inline");
  inline_run.ci_resamples = 100;
  wu::ThreadPool inline_pool(0);
  inline_run.pool = &inline_pool;
  inline_run.sharding = we::Sharding::kTrials;
  const auto inline_outcome = we::run_sweep(spec, inline_run);

  we::SweepOptions one_worker;
  one_worker.out_dir = fresh_dir("one_worker");
  one_worker.ci_resamples = 100;
  wu::ThreadPool pool1(1);
  one_worker.pool = &pool1;
  one_worker.sharding = we::Sharding::kCells;
  const auto one_outcome = we::run_sweep(spec, one_worker);

  we::SweepOptions many_workers;
  many_workers.out_dir = fresh_dir("many_workers");
  many_workers.ci_resamples = 100;
  wu::ThreadPool pool4(4);
  many_workers.pool = &pool4;
  many_workers.sharding = we::Sharding::kCells;
  const auto many_outcome = we::run_sweep(spec, many_workers);

  EXPECT_EQ(slurp(inline_outcome.csv_path), slurp(one_outcome.csv_path));
  EXPECT_EQ(slurp(inline_outcome.csv_path), slurp(many_outcome.csv_path));
  EXPECT_EQ(slurp(inline_outcome.json_path), slurp(many_outcome.json_path));
}

TEST(SweepRunner, ConcurrentTrialCsvSinkStressNoTornRows) {
  // Many cells stream into ONE per-trial sink from pool workers; every row
  // must arrive whole (the sink serializes writers).
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "wakeup_with_k", "wait_and_go"};
  spec.ns = {64, 128};
  spec.ks = {2, 4};
  spec.patterns = {we::PatternKind::kStaggered};
  spec.trials = 16;
  spec.base_seed = 3;
  const auto cells = we::expand(spec);
  ASSERT_EQ(cells.size(), 12u);

  const std::string dir = fresh_dir("csv_stress");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string csv_path = dir + "/trials.csv";
  {
    ws::TrialCsvSink sink(csv_path);
    we::SweepOptions options;
    options.out_dir = dir;
    options.ci_resamples = 0;
    options.trial_csv = &sink;
    wu::ThreadPool pool(4);
    options.pool = &pool;
    options.sharding = we::Sharding::kCells;
    const auto outcome = we::run_sweep(spec, options);
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(sink.rows(), cells.size() * spec.trials);
  }  // close the sink so every buffered row reaches the file

  std::ifstream in(csv_path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  const auto field_count = [](const std::string& row) {
    return 1 + std::count(row.begin(), row.end(), ',');
  };
  const auto expected_fields = field_count(line);
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ASSERT_EQ(field_count(line), expected_fields) << "torn row: " << line;
    ++rows;
  }
  EXPECT_EQ(rows, cells.size() * spec.trials);
}

TEST(SweepRunner, MultichannelAndAdversarialCellsRun) {
  we::SweepSpec spec;
  spec.protocols = {"striped_rr", "round_robin"};
  spec.ns = {64};
  spec.ks = {4};
  spec.channels = {2};
  spec.patterns = {we::PatternKind::kUniform};
  spec.trials = 4;
  we::SweepOptions options;
  options.out_dir = fresh_dir("mc");
  options.ci_resamples = 0;
  const auto outcome = we::run_sweep(spec, options);
  ASSERT_TRUE(outcome.completed);
  ASSERT_EQ(outcome.records.size(), 2u);
  for (const auto& record : outcome.records) {
    EXPECT_EQ(record.stats.failures, 0u) << record.cell.tag;
    EXPECT_GT(record.bound, 0.0);
  }

  we::SweepSpec adv;
  adv.protocols = {"round_robin"};
  adv.ns = {32};
  adv.ks = {3};
  adv.patterns = {we::PatternKind::kAdversarial};
  adv.trials = 3;
  we::SweepOptions adv_options;
  adv_options.out_dir = fresh_dir("adv");
  adv_options.ci_resamples = 0;
  const auto adv_outcome = we::run_sweep(adv, adv_options);
  ASSERT_TRUE(adv_outcome.completed);
  EXPECT_EQ(adv_outcome.records[0].stats.failures, 0u);
  // Round-robin against ITS hardest k=3 pattern should cost more rounds
  // than the average staggered run — sanity, not a tight claim.
  EXPECT_GE(adv_outcome.records[0].stats.rounds.mean, 3.0);
}

// --------------------------------------------------------------- presets --

TEST(Presets, AllNamedGridsExpand) {
  for (const auto& name : we::preset_names()) {
    const auto spec = we::make_preset(name);
    const auto cells = we::expand(spec);
    EXPECT_FALSE(cells.empty()) << name;
  }
  EXPECT_THROW((void)we::make_preset("figure-scenario-z"), std::invalid_argument);
  // The acceptance grid: 4 protocols x 6 n x 4 k.
  EXPECT_EQ(we::expand(we::make_preset("figure-scenario-b")).size(), 96u);
  EXPECT_LE(we::expand(we::make_preset("smoke")).size(), 16u);
}

// ------------------------------------------------------- dynamic traffic --

namespace {

/// Tiny dynamic grid: 2 protocols x 2 arrival kinds, seconds-scale.
we::SweepSpec dynamic_spec() {
  we::SweepSpec spec;
  spec.protocols = {"round_robin", "adaptive_cw"};
  spec.ns = {64};
  spec.ks = {4};
  spec.arrivals = we::parse_arrival_axis("poisson:0.2,bursty:0.4:0.1");
  spec.horizon = 256;
  spec.trials = 5;
  spec.base_seed = 17;
  return spec;
}

}  // namespace

TEST(Manifest, DynamicRecordRoundTrips) {
  const auto cells = we::expand(dynamic_spec());
  ASSERT_EQ(cells.size(), 4u);
  we::CellRecord record;
  record.cell = cells[1];
  ASSERT_TRUE(record.cell.dynamic);
  record.stats.trials = 5;
  record.stats.success_rate = 1.0;
  record.stats.throughput.count = 5;
  record.stats.throughput.mean = 0.19921875;
  record.stats.throughput.median = 0.201171875;
  record.stats.jain.count = 5;
  record.stats.jain.mean = 0.87654321987654321;
  record.stats.latency.count = 250;
  record.stats.latency.median = 12.5;
  record.stats.latency.p95 = 40.25;
  record.stats.latency.p99 = 61.125;
  record.stats.latency.max = 88.0;
  record.stats.packet_arrivals = 257;
  record.stats.delivered = 251;
  record.stats.backlog = 6;

  const we::CellRecord parsed = we::parse_manifest_line(we::manifest_line(record));
  EXPECT_TRUE(parsed.cell.dynamic);
  EXPECT_EQ(parsed.cell.arrival, record.cell.arrival);
  EXPECT_EQ(parsed.cell.horizon, record.cell.horizon);
  EXPECT_EQ(parsed.cell.tag, record.cell.tag);
  EXPECT_EQ(parsed.stats.throughput.mean, record.stats.throughput.mean);
  EXPECT_EQ(parsed.stats.jain.mean, record.stats.jain.mean);
  EXPECT_EQ(parsed.stats.latency.p99, record.stats.latency.p99);
  EXPECT_EQ(parsed.stats.packet_arrivals, record.stats.packet_arrivals);
  EXPECT_EQ(parsed.stats.delivered, record.stats.delivered);
  EXPECT_EQ(parsed.stats.backlog, record.stats.backlog);
}

TEST(Manifest, RejectsPreDynamicVersionWithFriendlyError) {
  const std::string dir = fresh_dir("v1");
  ASSERT_TRUE(wu::ensure_directory(dir));
  const std::string path = dir + "/manifest.jsonl";
  {
    std::ofstream out(path);
    out << "{\"manifest\":\"wakeup-sweep\",\"version\":1,\"base_seed\":11,"
           "\"grid_hash\":123,\"cells\":8}\n";
  }
  try {
    (void)we::load_manifest(path);
    FAIL() << "v1 manifest must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("re-run the sweep fresh"), std::string::npos) << what;
  }
}

TEST(SweepRunner, DynamicSweepResumeEqualsFreshByteIdentically) {
  const auto spec = dynamic_spec();
  we::SweepOptions fresh;
  fresh.out_dir = fresh_dir("dyn_fresh");
  fresh.ci_resamples = 100;
  const auto full = we::run_sweep(spec, fresh);
  ASSERT_TRUE(full.completed);
  ASSERT_EQ(full.records.size(), 4u);
  for (const auto& record : full.records) {
    // Dynamic trials never exhaust a budget — the horizon IS the budget.
    EXPECT_EQ(record.stats.failures, 0u) << record.cell.tag;
    EXPECT_GT(record.stats.throughput.mean, 0.0) << record.cell.tag;
    EXPECT_GT(record.stats.jain.mean, 0.0) << record.cell.tag;
    EXPECT_LE(record.stats.jain.mean, 1.0) << record.cell.tag;
    EXPECT_GE(record.stats.latency.p99, record.stats.latency.median) << record.cell.tag;
    EXPECT_EQ(record.stats.packet_arrivals,
              record.stats.delivered + record.stats.backlog)
        << record.cell.tag;
  }
  // The report carries the dynamic columns.
  const std::string json = slurp(full.json_path);
  EXPECT_NE(json.find("\"throughput_mean\""), std::string::npos);
  EXPECT_NE(json.find("\"jain_mean\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_p99\""), std::string::npos);

  we::SweepOptions interrupted;
  interrupted.out_dir = fresh_dir("dyn_resumed");
  interrupted.ci_resamples = 100;
  interrupted.max_cells = 2;  // simulated mid-grid kill
  const auto partial = we::run_sweep(spec, interrupted);
  EXPECT_FALSE(partial.completed);
  interrupted.max_cells = 0;
  interrupted.resume = true;
  const auto resumed = we::run_sweep(spec, interrupted);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.cells_resumed, 2u);
  EXPECT_EQ(slurp(full.csv_path), slurp(resumed.csv_path));
  EXPECT_EQ(slurp(full.json_path), slurp(resumed.json_path));
  // Lines land in grid order at any thread count, and the capped run
  // took the first cells of the grid, so the manifests match byte for byte.
  EXPECT_EQ(slurp(full.manifest_path), slurp(resumed.manifest_path));
}

TEST(SweepRunner, DynamicGridRejectsPerTrialCsv) {
  const std::string dir = fresh_dir("dyn_csv");
  ASSERT_TRUE(wu::ensure_directory(dir));
  ws::TrialCsvSink sink(dir + "/trials.csv");
  we::SweepOptions options;
  options.out_dir = dir;
  options.ci_resamples = 0;
  options.trial_csv = &sink;
  EXPECT_THROW((void)we::run_sweep(dynamic_spec(), options), std::invalid_argument);
}

TEST(SweepRunner, HeartbeatFiresEveryNCellsAndIsOffByDefault) {
  EXPECT_EQ(we::SweepOptions{}.heartbeat_cells, 0u);  // CI logs stay clean

  const auto spec = small_spec();  // 8 cells
  wu::ThreadPool inline_pool(0);   // sequential, so beat order is exact
  we::SweepOptions options;
  options.out_dir = fresh_dir("heartbeat");
  options.ci_resamples = 0;
  options.pool = &inline_pool;
  options.heartbeat_cells = 3;
  std::vector<we::SweepHeartbeat> beats;
  options.heartbeat = [&beats](const we::SweepHeartbeat& hb) { beats.push_back(hb); };
  const auto outcome = we::run_sweep(spec, options);
  ASSERT_TRUE(outcome.completed);

  ASSERT_EQ(beats.size(), 2u);  // after cells 3 and 6 of 8
  EXPECT_EQ(beats[0].completed, 3u);
  EXPECT_EQ(beats[1].completed, 6u);
  for (const auto& hb : beats) {
    EXPECT_EQ(hb.total, 8u);
    EXPECT_GT(hb.cells_per_sec, 0.0);
    EXPECT_GE(hb.eta_sec, 0.0);
  }

  // Resumed cells count toward `completed`, so a restarted sweep reports
  // whole-grid progress rather than this invocation's.
  auto resumed = options;
  resumed.resume = true;
  resumed.max_cells = 0;
  std::vector<we::SweepHeartbeat> resumed_beats;
  resumed.heartbeat = [&resumed_beats](const we::SweepHeartbeat& hb) {
    resumed_beats.push_back(hb);
  };
  options.max_cells = 5;
  auto partial_dir = fresh_dir("heartbeat_resume");
  options.out_dir = partial_dir;
  resumed.out_dir = partial_dir;
  (void)we::run_sweep(spec, options);
  const auto finished = we::run_sweep(spec, resumed);
  ASSERT_TRUE(finished.completed);
  ASSERT_EQ(resumed_beats.size(), 1u);  // 5 resumed + 3 run -> one beat at 8
  EXPECT_EQ(resumed_beats[0].completed, 8u);
  EXPECT_EQ(resumed_beats[0].total, 8u);
}
