/// The sim::Run facade: spec validation, single-run/cell outcome shapes,
/// engine forcing, the streaming per-trial CSV sink, the default
/// shared-pool dispatch, and the cell semantics (seed contract, per-trial
/// sinks, failure counting) formerly pinned through the deleted
/// run_cell/run_cell_batched wrappers.

#include "sim/run.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "mac/impairment.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "protocols/round_robin.hpp"
#include "protocols/rpd.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/results_sink.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ws = wakeup::sim;
namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace wu = wakeup::util;

namespace {

ws::RunSpec basic_cell(std::uint32_t n, std::uint32_t k, std::uint64_t trials) {
  ws::RunSpec spec;
  spec.make_protocol = [n](std::uint64_t) -> wp::ProtocolPtr {
    return std::make_shared<wp::RoundRobinProtocol>(n);
  };
  spec.make_pattern = [n, k](wu::Rng& rng) { return wm::patterns::simultaneous(n, k, 0, rng); };
  spec.trials = trials;
  spec.base_seed = 42;
  return spec;
}

}  // namespace

TEST(RunFacade, RunsAllTrials) {
  const auto result = ws::Run(basic_cell(32, 4, 20)).trials.finalize();
  EXPECT_EQ(result.trials, 20u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.rounds.count, 20u);
  EXPECT_LE(result.rounds.max, 32.0);
}

TEST(RunFacade, DeterministicAcrossPoolChoices) {
  // Inline (0-worker pool), the default shared pool (pool == nullptr), and
  // an explicit multi-worker pool must agree bitwise — the seed contract
  // keys randomness by trial index, never by thread.
  wu::ThreadPool inline_pool(0);
  const auto inline_result = ws::Run(basic_cell(64, 8, 32), &inline_pool).trials.finalize();
  const auto shared_result = ws::Run(basic_cell(64, 8, 32)).trials.finalize();
  wu::ThreadPool pool4(4);
  const auto pool4_result = ws::Run(basic_cell(64, 8, 32), &pool4).trials.finalize();
  EXPECT_DOUBLE_EQ(inline_result.rounds.mean, shared_result.rounds.mean);
  EXPECT_DOUBLE_EQ(inline_result.rounds.mean, pool4_result.rounds.mean);
  EXPECT_DOUBLE_EQ(inline_result.rounds.median, shared_result.rounds.median);
  EXPECT_DOUBLE_EQ(inline_result.rounds.max, pool4_result.rounds.max);
  EXPECT_EQ(inline_result.failures, shared_result.failures);
}

TEST(RunFacade, CellTagChangesTrialStreams) {
  auto a = basic_cell(64, 8, 16);
  auto b = basic_cell(64, 8, 16);
  b.cell_tag = 1;
  const auto ra = ws::Run(a).trials.finalize();
  const auto rb = ws::Run(b).trials.finalize();
  // Different tags -> different patterns -> (almost surely) different stats.
  EXPECT_NE(ra.rounds.mean, rb.rounds.mean);
}

TEST(RunFacade, FailuresCounted) {
  auto spec = basic_cell(64, 4, 10);
  spec.sim.max_slots = 1;  // nothing succeeds in one slot unless id matches slot 0
  const auto result = ws::Run(spec).trials.finalize();
  EXPECT_EQ(result.failures + result.rounds.count, 10u);
  EXPECT_GT(result.failures, 0u);
}

TEST(RunFacade, DeterministicProtocolConstructedOncePerCell) {
  // The trial-batch seed contract: the cell-level seed derives the
  // protocol, so the factory runs exactly once however many trials run.
  std::size_t constructions = 0;
  ws::RunSpec spec;
  spec.make_protocol = [&constructions](std::uint64_t) -> wp::ProtocolPtr {
    ++constructions;
    return std::make_shared<wp::RoundRobinProtocol>(32);
  };
  spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(32, 4, 0, rng); };
  spec.trials = 16;
  wu::ThreadPool inline_pool(0);  // construction counting: no worker races
  const auto result = ws::Run(spec, &inline_pool).trials.finalize();
  EXPECT_EQ(result.trials, 16u);
  EXPECT_EQ(constructions, 1u);
}

TEST(RunFacade, CellSeedIsTrialIndependent) {
  // The seed handed to the factory must not depend on any trial: two cells
  // differing only in trial count get the same protocol seed.
  std::vector<std::uint64_t> seeds;
  auto run_with_trials = [&](std::uint64_t trials) {
    ws::RunSpec spec;
    spec.make_protocol = [&seeds](std::uint64_t seed) -> wp::ProtocolPtr {
      seeds.push_back(seed);
      return std::make_shared<wp::RoundRobinProtocol>(32);
    };
    spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(32, 4, 0, rng); };
    spec.trials = trials;
    wu::ThreadPool inline_pool(0);
    (void)ws::Run(spec, &inline_pool);
  };
  run_with_trials(4);
  run_with_trials(12);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0], seeds[1]);
}

TEST(RunFacade, PerTrialSinkSeesEveryTrialOnce) {
  auto spec = basic_cell(64, 8, 20);
  std::vector<int> seen(20, 0);
  std::vector<ws::SimResult> results(20);
  spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) {
    ++seen[i];
    results[i] = r;
  };
  const auto agg = ws::Run(spec).trials.finalize();
  for (int c : seen) EXPECT_EQ(c, 1);
  std::uint64_t successes = 0;
  for (const auto& r : results) successes += r.success ? 1 : 0;
  EXPECT_EQ(successes, agg.trials - agg.failures);
}

namespace {

/// The per-trial reference a cell summary must reproduce: samples pushed
/// in trial order from the per-trial hooks, energy for every trial, the
/// rest for successful ones, then `Summary::of` and `BootstrapCI::of_mean`.
struct Reference {
  wu::Sample rounds, collisions, silences, energy_mean, energy_max;
  std::uint64_t failures = 0;

  template <class Result>
  explicit Reference(const std::vector<Result>& trials) {
    for (const Result& r : trials) {
      if constexpr (std::is_same_v<Result, ws::SimResult>) {
        if (!r.station_energy.empty()) {
          double sum = 0;
          std::uint64_t max = 0;
          for (const std::uint64_t e : r.station_energy) {
            sum += static_cast<double>(e);
            max = std::max(max, e);
          }
          energy_mean.push(sum / static_cast<double>(r.station_energy.size()));
          energy_max.push(static_cast<double>(max));
        }
      }
      if (!r.success) {
        ++failures;
        continue;
      }
      rounds.push(static_cast<double>(r.rounds));
      collisions.push(static_cast<double>(r.collisions));
      silences.push(static_cast<double>(r.silences));
    }
  }
};

void expect_same(const wu::Summary& a, const wu::Summary& b, const char* what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.stddev, b.stddev) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.median, b.median) << what;
  EXPECT_EQ(a.p95, b.p95) << what;
  EXPECT_EQ(a.p99, b.p99) << what;
  EXPECT_EQ(a.max, b.max) << what;
}

void expect_same(const wu::BootstrapCI& a, const wu::BootstrapCI& b, const char* what) {
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.lo, b.lo) << what;
  EXPECT_EQ(a.hi, b.hi) << what;
}

void expect_matches(const ws::CellStats& stats, const Reference& ref, std::uint64_t trials) {
  EXPECT_EQ(stats.trials, trials);
  EXPECT_EQ(stats.failures, ref.failures);
  expect_same(stats.rounds, wu::Summary::of(ref.rounds), "rounds");
  expect_same(stats.collisions, wu::Summary::of(ref.collisions), "collisions");
  expect_same(stats.silences, wu::Summary::of(ref.silences), "silences");
  expect_same(stats.energy_mean, wu::Summary::of(ref.energy_mean), "energy_mean");
  expect_same(stats.energy_max, wu::Summary::of(ref.energy_max), "energy_max");
  expect_same(stats.rounds_mean_ci, wu::BootstrapCI::of_mean(ref.rounds, 0.95, 2000, 9),
              "rounds mean CI");
  expect_same(stats.rounds_median_ci,
              wu::BootstrapCI::of_quantile(ref.rounds, 0.5, 0.95, 2000, 9), "rounds median CI");
  expect_same(stats.energy_mean_ci, wu::BootstrapCI::of_mean(ref.energy_mean, 0.95, 2000, 9),
              "energy mean CI");
}

}  // namespace

TEST(RunFacade, CellSummaryMatchesPerTrialReference) {
  // Static, energy on, a budget some trials exhaust: failed trials pay
  // energy but carry no rounds, so the two bootstrap samples differ in size.
  auto spec = basic_cell(64, 4, 40);
  spec.sim.max_slots = 24;
  spec.sim.energy = ws::EnergyModel::kListenAll;
  std::vector<ws::SimResult> results(spec.trials);
  spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) { results[i] = r; };
  wu::ThreadPool pool(4);
  const ws::CellStats stats = ws::Run(spec, &pool).trials.finalize(2000, 9);
  const Reference ref(results);
  EXPECT_GT(ref.failures, 0u);
  EXPECT_EQ(ref.energy_mean.size(), spec.trials);
  expect_matches(stats, ref, spec.trials);

  // C lanes: no energy, and the same summary code.
  ws::RunSpec mc;
  mc.make_mc_protocol = [](std::uint64_t seed) {
    return wp::make_group_wait_and_go(128, 16, 4, wakeup::comb::FamilyKind::kRandomized, seed);
  };
  mc.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(128, 16, 0, rng); };
  mc.trials = 30;
  mc.base_seed = 5;
  mc.sim.max_slots = 6;
  std::vector<ws::McSimResult> mc_results(mc.trials);
  mc.per_trial_mc = [&](std::uint64_t i, const ws::McSimResult& r) { mc_results[i] = r; };
  const ws::CellStats mc_stats = ws::Run(mc, &pool).trials.finalize(2000, 9);
  const Reference mc_ref(mc_results);
  EXPECT_GT(mc_ref.rounds.size(), 1u);
  EXPECT_EQ(mc_stats.energy_mean.count, 0u);
  expect_matches(mc_stats, mc_ref, mc.trials);
}

TEST(RunFacade, CallerSetPlanIsReadPerTrialOnEveryWorker) {
  // A caller-set plan realizes its words as they are read, so Run gives
  // each trial its own copy: over a 4-worker pool every trial must read
  // the same bits as inline (and share no mutable state with another).
  const auto impairment = wm::ImpairmentSpec::parse("noise:iid:0.4+jam:budget:6:front");
  const auto plan = ws::compile_impairment(impairment, 17, 4096);
  auto spec = basic_cell(64, 8, 48);
  spec.sim.max_slots = 4096;
  spec.sim.impairment = &plan;
  const auto collect = [&](ws::RunSpec s, wu::ThreadPool& pool) {
    std::vector<ws::SimResult> results(s.trials);
    s.per_trial = [&](std::uint64_t i, const ws::SimResult& r) { results[i] = r; };
    (void)ws::Run(s, &pool);
    return results;
  };
  wu::ThreadPool inline_pool(0);
  wu::ThreadPool pool4(4);
  // Pooled first: the workers must not find words an earlier run realized.
  const auto pooled_results = collect(spec, pool4);
  const auto inline_results = collect(spec, inline_pool);
  spec.sim.impairment = nullptr;
  const auto clean_results = collect(spec, inline_pool);
  std::size_t impaired = 0;
  for (std::uint64_t i = 0; i < spec.trials; ++i) {
    const ws::SimResult& a = inline_results[i];
    const ws::SimResult& b = pooled_results[i];
    EXPECT_EQ(a.success, b.success) << i;
    EXPECT_EQ(a.rounds, b.rounds) << i;
    EXPECT_EQ(a.winner, b.winner) << i;
    EXPECT_EQ(a.collisions, b.collisions) << i;
    EXPECT_EQ(a.silences, b.silences) << i;
    impaired += a.rounds != clean_results[i].rounds ? 1 : 0;
  }
  EXPECT_GT(impaired, 0u);  // the plan is applied, not ignored

  // The dynamic path copies a caller-set plan the same way.
  ws::RunSpec dyn;
  dyn.make_protocol = [](std::uint64_t seed) {
    wp::ProtocolSpec p;
    p.name = "round_robin";
    p.n = 64;
    p.k = 8;
    p.seed = seed;
    return wp::make_protocol_by_name(p);
  };
  dyn.horizon = 512;
  dyn.arrival = wm::ArrivalSpec::parse("poisson:0.4");
  dyn.dynamic_n = 64;
  dyn.dynamic_k = 8;
  dyn.trials = 16;
  dyn.base_seed = 7;
  const auto dyn_plan = ws::compile_impairment(impairment, 23, 512);
  dyn.sim.impairment = &dyn_plan;
  const auto collect_dynamic = [&](ws::RunSpec s, wu::ThreadPool& pool) {
    std::vector<ws::DynamicResult> results(s.trials);
    s.per_trial_dynamic = [&](std::uint64_t i, const ws::DynamicResult& r) { results[i] = r; };
    (void)ws::Run(s, &pool);
    return results;
  };
  const auto dyn_pooled = collect_dynamic(dyn, pool4);
  const auto dyn_inline = collect_dynamic(dyn, inline_pool);
  for (std::uint64_t i = 0; i < dyn.trials; ++i) EXPECT_TRUE(dyn_inline[i] == dyn_pooled[i]) << i;
}

TEST(RunFacade, RandomizedProtocolSeedsVaryPerTrial) {
  ws::RunSpec spec;
  spec.make_protocol = [](std::uint64_t seed) -> wp::ProtocolPtr {
    return wp::RpdProtocol::for_n(64, seed);
  };
  spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(64, 8, 0, rng); };
  spec.trials = 24;
  const auto result = ws::Run(spec).trials.finalize();
  EXPECT_EQ(result.failures, 0u);
  // With varying coins the rounds should not all be identical.
  EXPECT_GT(result.rounds.max, result.rounds.min);
}

TEST(RunFacade, NormalizedMean) {
  ws::CellStats r;
  r.rounds.count = 5;
  r.rounds.mean = 50.0;
  EXPECT_DOUBLE_EQ(ws::normalized_mean(r, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(ws::normalized_mean(r, 0.0), 0.0);
  ws::CellStats empty;
  EXPECT_DOUBLE_EQ(ws::normalized_mean(empty, 10.0), 0.0);
}

TEST(RunFacade, NestedRunInsideAPoolWorkerStaysInline) {
  // A Run issued from inside a pool task must not queue on the same pool
  // (deadlock risk with few workers) — it detects the worker context and
  // runs inline.  One worker makes any deadlock deterministic.
  wu::ThreadPool pool(1);
  ws::CellStats inner_result;
  pool.parallel_for(0, 1, [&](std::size_t) {
    inner_result = ws::Run(basic_cell(32, 4, 8)).trials.finalize();
  });
  const auto reference = ws::Run(basic_cell(32, 4, 8)).trials.finalize();
  EXPECT_EQ(inner_result.trials, 8u);
  EXPECT_DOUBLE_EQ(inner_result.rounds.mean, reference.rounds.mean);
}

TEST(RunFacade, RejectsAmbiguousSpecs) {
  const wp::RoundRobinProtocol rr(8);
  const wm::WakePattern pattern(8, {{1, 0}});
  // No protocol source.
  EXPECT_THROW((void)ws::Run({.pattern = &pattern}), std::invalid_argument);
  // Two protocol sources.
  ws::RunSpec two;
  two.protocol = &rr;
  two.make_protocol = [](std::uint64_t) -> wp::ProtocolPtr { return nullptr; };
  two.pattern = &pattern;
  EXPECT_THROW((void)ws::Run(two), std::invalid_argument);
  // No pattern source.
  EXPECT_THROW((void)ws::Run({.protocol = &rr}), std::invalid_argument);
  // Multichannel model rejects single-channel-only features.
  const auto mc = wp::make_striped_round_robin(8, 2);
  EXPECT_THROW((void)ws::Run({.mc_protocol = mc.get(),
                              .pattern = &pattern,
                              .sim = {.full_resolution = true}}),
               std::invalid_argument);
  EXPECT_THROW((void)ws::Run({.mc_protocol = mc.get(),
                              .pattern = &pattern,
                              .sim = {.record_trace = true}}),
               std::invalid_argument);
  // ... before the cell's protocol is built.
  std::size_t mc_builds = 0;
  ws::RunSpec traced_cell;
  traced_cell.make_mc_protocol = [&mc_builds](std::uint64_t) {
    ++mc_builds;
    return wp::make_striped_round_robin(8, 2);
  };
  traced_cell.pattern = &pattern;
  traced_cell.sim.feedback = wm::FeedbackModel::kCollisionDetection;
  EXPECT_THROW((void)ws::Run(traced_cell), std::invalid_argument);
  EXPECT_EQ(mc_builds, 0u);
  // A sink of the wrong channel model would silently never fire.
  ws::RunSpec wrong_sink;
  wrong_sink.mc_protocol = mc.get();
  wrong_sink.pattern = &pattern;
  wrong_sink.per_trial = [](std::uint64_t, const ws::SimResult&) {};
  EXPECT_THROW((void)ws::Run(wrong_sink), std::invalid_argument);
  ws::RunSpec wrong_mc_sink;
  wrong_mc_sink.protocol = &rr;
  wrong_mc_sink.pattern = &pattern;
  wrong_mc_sink.per_trial_mc = [](std::uint64_t, const ws::McSimResult&) {};
  EXPECT_THROW((void)ws::Run(wrong_mc_sink), std::invalid_argument);
}

TEST(RunFacade, SingleRunFillsBothSimAndCell) {
  const wp::RoundRobinProtocol rr(8);
  const wm::WakePattern pattern(8, {{2, 11}});
  const auto out = ws::Run({.protocol = &rr, .pattern = &pattern});
  EXPECT_FALSE(out.multichannel);
  ASSERT_TRUE(out.sim.success);
  EXPECT_EQ(out.sim.success_slot, 18);
  EXPECT_EQ(out.trials.finalize().trials, 1u);
  EXPECT_EQ(out.trials.finalize().failures, 0u);
  EXPECT_DOUBLE_EQ(out.trials.finalize().rounds.mean, static_cast<double>(out.sim.rounds));
}

TEST(RunFacade, SingleMcRunFillsMc) {
  const auto mc = wp::make_striped_round_robin(16, 4);
  const wm::WakePattern pattern(16, {{5, 0}});
  const auto out = ws::Run({.mc_protocol = mc.get(), .pattern = &pattern});
  EXPECT_TRUE(out.multichannel);
  ASSERT_TRUE(out.mc.success);
  EXPECT_EQ(out.mc.success_channel, static_cast<std::int32_t>(5 % 4));
  EXPECT_EQ(out.trials.finalize().trials, 1u);
}

TEST(RunFacade, McCellAggregatesTrials) {
  const auto mc = wp::make_group_wait_and_go(128, 16, 4,
                                             wakeup::comb::FamilyKind::kRandomized, 11);
  ws::RunSpec spec;
  spec.mc_protocol = mc.get();
  spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(128, 16, 0, rng); };
  spec.trials = 12;
  std::vector<int> seen(12, 0);
  spec.per_trial_mc = [&](std::uint64_t i, const ws::McSimResult& r) {
    ++seen[i];
    EXPECT_TRUE(r.success);
  };
  const auto out = ws::Run(spec, nullptr);
  EXPECT_TRUE(out.multichannel);
  EXPECT_EQ(out.trials.finalize().trials, 12u);
  EXPECT_EQ(out.trials.finalize().failures, 0u);
  EXPECT_EQ(out.trials.finalize().rounds.count, 12u);
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(RunFacade, McCellDeterministicAcrossThreadCounts) {
  const auto build = [] {
    ws::RunSpec spec;
    spec.make_mc_protocol = [](std::uint64_t seed) {
      return wp::make_group_wait_and_go(128, 16, 4, wakeup::comb::FamilyKind::kRandomized,
                                        seed);
    };
    spec.make_pattern = [](wu::Rng& rng) {
      return wm::patterns::simultaneous(128, 16, 0, rng);
    };
    spec.trials = 16;
    spec.base_seed = 9;
    return spec;
  };
  const auto inline_result = ws::Run(build(), nullptr).trials.finalize();
  wu::ThreadPool pool(4);
  const auto pooled = ws::Run(build(), &pool).trials.finalize();
  EXPECT_DOUBLE_EQ(inline_result.rounds.mean, pooled.rounds.mean);
  EXPECT_DOUBLE_EQ(inline_result.silences.mean, pooled.silences.mean);
  EXPECT_EQ(inline_result.failures, pooled.failures);
}

TEST(RunFacade, FixedPatternIsReusedAcrossTrials) {
  // A deterministic protocol against a fixed pattern: every trial is the
  // same run, so the aggregate has zero spread.
  const wp::RoundRobinProtocol rr(32);
  const wm::WakePattern pattern(32, {{7, 0}, {20, 0}});
  const auto out = ws::Run({.protocol = &rr, .pattern = &pattern, .trials = 6});
  EXPECT_EQ(out.trials.finalize().rounds.count, 6u);
  EXPECT_DOUBLE_EQ(out.trials.finalize().rounds.min, out.trials.finalize().rounds.max);
}

TEST(RunFacade, StreamingTrialCsvWritesOneRowPerTrial) {
  const std::string path = ::testing::TempDir() + "run_facade_trials.csv";
  std::vector<ws::SimResult> results(40);
  {
    ws::TrialCsvSink sink(path);
    auto spec = basic_cell(64, 8, 40);
    spec.trial_csv = &sink;
    spec.per_trial = [&](std::uint64_t i, const ws::SimResult& r) { results[i] = r; };
    wu::ThreadPool pool(4);
    const auto out = ws::Run(spec, &pool);
    EXPECT_EQ(out.trials.finalize().trials, 40u);
    EXPECT_EQ(sink.rows(), 40u);
  }
  // Parse back: every trial appears exactly once with its own counters.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("trial,success,", 0), 0u) << line;
  std::vector<int> seen(40, 0);
  while (std::getline(in, line)) {
    std::stringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    ASSERT_EQ(fields.size(), 10u) << line;
    const auto trial = static_cast<std::size_t>(std::stoull(fields[0]));
    ASSERT_LT(trial, 40u);
    ++seen[trial];
    const auto& r = results[trial];
    EXPECT_EQ(fields[1], r.success ? "1" : "0");
    EXPECT_EQ(std::stoll(fields[4]), r.rounds);
    EXPECT_EQ(std::stoull(fields[7]), r.silences);
    EXPECT_EQ(std::stoull(fields[9]), r.successes);
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
  std::remove(path.c_str());
}

TEST(RunFacade, McStreamingCsvRecordsChannel) {
  const std::string path = ::testing::TempDir() + "run_facade_mc_trials.csv";
  {
    ws::TrialCsvSink sink(path);
    const auto mc = wp::make_striped_round_robin(64, 4);
    ws::RunSpec spec;
    spec.mc_protocol = mc.get();
    spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(64, 4, 0, rng); };
    spec.trials = 8;
    spec.trial_csv = &sink;
    (void)ws::Run(spec, nullptr);
    EXPECT_EQ(sink.rows(), 8u);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    std::stringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    ASSERT_EQ(fields.size(), 10u);
    EXPECT_NE(std::stoi(fields[6]), -1) << "mc rows carry the winning channel";
    ++rows;
  }
  EXPECT_EQ(rows, 8u);
  std::remove(path.c_str());
}

TEST(RunFacade, RandomizedMcProtocolsRebuildPerTrial) {
  // random_rpd with a builder: per-trial coin streams, so rounds vary.
  ws::RunSpec spec;
  spec.make_mc_protocol = [](std::uint64_t seed) {
    return wp::make_random_channel_rpd(128, 4, seed);
  };
  spec.make_pattern = [](wu::Rng& rng) { return wm::patterns::simultaneous(128, 16, 0, rng); };
  spec.trials = 16;
  // Pool workers build concurrently, so the counter must be atomic.
  std::atomic<std::size_t> builds{0};
  auto counting = spec;
  counting.make_mc_protocol = [&builds](std::uint64_t seed) {
    ++builds;
    return wp::make_random_channel_rpd(128, 4, seed);
  };
  const auto out = ws::Run(counting, nullptr);
  EXPECT_EQ(out.trials.finalize().failures, 0u);
  // One cell-level construction plus one rebuild per trial.
  EXPECT_EQ(builds.load(), 1u + 16u);
  EXPECT_GT(out.trials.finalize().rounds.max, out.trials.finalize().rounds.min);
}
