/// End-to-end property suite: every scenario algorithm, against every wake
/// pattern shape, across seeds — always wakes up, within its theory
/// envelope, and the relative ordering the paper proves holds on average.

#include <gtest/gtest.h>

#include "core/solver.hpp"
#include "protocols/registry.hpp"
#include "sim/run.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace wco = wakeup::core;
namespace wp = wakeup::proto;
namespace wm = wakeup::mac;
namespace ws = wakeup::sim;
namespace wu = wakeup::util;

struct IntegrationCase {
  std::string protocol;
  wm::patterns::Kind pattern;
  std::uint32_t n;
  std::uint32_t k;
  std::uint64_t seed;
};

class EndToEnd : public ::testing::TestWithParam<IntegrationCase> {};

TEST_P(EndToEnd, WakesUpWithinEnvelope) {
  const auto& p = GetParam();
  wp::ProtocolSpec spec;
  spec.name = p.protocol;
  spec.n = p.n;
  spec.k = p.k;
  spec.s = 0;
  spec.seed = p.seed;
  const auto protocol = wp::make_protocol_by_name(spec);

  wu::Rng rng(wu::hash_words({p.seed, p.n, p.k}));
  const auto pattern = wm::patterns::generate(p.pattern, p.n, p.k, 0, rng);

  ws::SimConfig config;
  config.feedback = protocol->requirements().needs_collision_detection
                        ? wm::FeedbackModel::kCollisionDetection
                        : wm::FeedbackModel::kNone;
  const auto result = ws::Run({.protocol = protocol.get(), .pattern = &pattern, .sim = config}).sim;
  ASSERT_TRUE(result.success) << p.protocol << " / " << wm::patterns::kind_name(p.pattern);
  EXPECT_GE(result.rounds, 0);
  // Auto budget is 64x the Scenario C bound; landing within it is already a
  // strong envelope. Deterministic scenario protocols get a tighter cap.
  if (p.protocol == "wakeup_with_s" || p.protocol == "wakeup_with_k") {
    EXPECT_LE(result.rounds, static_cast<std::int64_t>(2 * p.n) + 2 * pattern.last_wake() + 4)
        << p.protocol;
  }
}

namespace {

std::vector<IntegrationCase> make_cases() {
  std::vector<IntegrationCase> cases;
  const std::vector<std::string> protocols = {"round_robin", "wakeup_with_s", "wakeup_with_k",
                                              "wakeup_matrix", "rpd_n", "local_doubling"};
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> shapes = {
      {64, 1}, {64, 8}, {64, 64}, {256, 16}};
  std::uint64_t seed = 1;
  for (const auto& protocol : protocols) {
    for (const auto kind : wm::patterns::all_kinds()) {
      for (const auto& [n, k] : shapes) {
        cases.push_back({protocol, kind, n, k, seed++});
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<IntegrationCase>& info) {
  const auto& p = info.param;
  return p.protocol + "_" + wm::patterns::kind_name(p.pattern) + "_n" + std::to_string(p.n) +
         "_k" + std::to_string(p.k);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Sweep, EndToEnd, ::testing::ValuesIn(make_cases()), case_name);

// ---------------------------------------------------------------- orderings

TEST(PaperOrdering, ScenarioAlgorithmsBeatGenerousBoundsOnAverage) {
  // Mean rounds of each scenario algorithm normalized by its own theory
  // bound stays below a fixed constant — the constant-factor sanity of the
  // three headline theorems, at one mid-size shape.
  const std::uint32_t n = 256, k = 16;
  wu::ThreadPool pool(2);

  auto run_mean = [&](const std::string& name) {
    ws::RunSpec cell;
    cell.make_protocol = [&, name](std::uint64_t seed) {
      wp::ProtocolSpec spec;
      spec.name = name;
      spec.n = n;
      spec.k = k;
      spec.s = 0;
      spec.seed = seed;
      return wp::make_protocol_by_name(spec);
    };
    cell.make_pattern = [&](wu::Rng& rng) {
      return wm::patterns::uniform_window(n, k, 0, 2 * k, rng);
    };
    cell.trials = 16;
    cell.base_seed = 99;
    const auto result = ws::Run(cell, &pool).trials.finalize();
    EXPECT_EQ(result.failures, 0u) << name;
    return result.rounds.mean;
  };

  const double ab_bound = wu::scenario_ab_bound(n, k);
  const double c_bound = wu::scenario_c_bound(n, k);
  EXPECT_LT(run_mean("wakeup_with_s"), 30.0 * ab_bound);
  EXPECT_LT(run_mean("wakeup_with_k"), 30.0 * ab_bound);
  EXPECT_LT(run_mean("wakeup_matrix"), 30.0 * c_bound);
}

TEST(PaperOrdering, KnowledgeHelps) {
  // More knowledge -> no worse asymptotic class.  Compare at simultaneous
  // high contention, where the Theta(k log(n/k)) vs Theta(k log n loglog n)
  // gap is structural rather than a race between first lucky solo slots.
  // Protocols are built once per cell (the trial-batch seed contract), so
  // average over several cell tags — several independent family/matrix
  // instances — not just over wake patterns.
  const std::uint32_t n = 1024, k = 64;
  wu::ThreadPool pool(2);
  auto mean_for = [&](const std::string& name) {
    double sum = 0;
    for (std::uint64_t tag = 0; tag < 4; ++tag) {
      ws::RunSpec cell;
      cell.make_protocol = [&, name](std::uint64_t seed) {
        wp::ProtocolSpec spec;
        spec.name = name;
        spec.n = n;
        spec.k = k;
        spec.s = 0;
        spec.seed = seed;
        return wp::make_protocol_by_name(spec);
      };
      cell.make_pattern = [&](wu::Rng& rng) { return wm::patterns::simultaneous(n, k, 0, rng); };
      cell.trials = 12;
      cell.base_seed = 7;
      cell.cell_tag = tag;
      sum += ws::Run(cell, &pool).trials.finalize().rounds.mean;
    }
    return sum / 4.0;
  };
  EXPECT_LT(mean_for("wakeup_with_k"), mean_for("wakeup_matrix"));
}

TEST(PaperOrdering, RoundRobinWinsAtFullContention) {
  // Corollary 2.1 regime: k = n. RR's n slots beat the selective machinery.
  const std::uint32_t n = 128;
  wu::Rng rng(17);
  std::vector<wm::Arrival> arrivals;
  for (wm::StationId u = 0; u < n; ++u) arrivals.push_back({u, 0});
  const wm::WakePattern pattern(n, std::move(arrivals));

  wp::ProtocolSpec rr_spec;
  rr_spec.name = "round_robin";
  rr_spec.n = n;
  const auto rr = wp::make_protocol_by_name(rr_spec);
  const auto rr_result = ws::Run({.protocol = rr.get(), .pattern = &pattern}).sim;
  ASSERT_TRUE(rr_result.success);
  EXPECT_LE(rr_result.rounds, static_cast<std::int64_t>(n));
}

TEST(FullResolution, SelectiveScheduleDeliversAllK) {
  // Komlós–Greenberg extension: run wakeup_with_k in full-resolution mode;
  // every station eventually transmits alone.
  const std::uint32_t n = 64, k = 8;
  wu::Rng rng(23);
  wp::ProtocolSpec spec;
  spec.name = "wakeup_with_k";
  spec.n = n;
  spec.k = k;
  const auto protocol = wp::make_protocol_by_name(spec);
  const auto pattern = wm::patterns::simultaneous(n, k, 0, rng);
  ws::SimConfig config;
  config.full_resolution = true;
  const auto result = ws::Run({.protocol = protocol.get(), .pattern = &pattern, .sim = config}).sim;
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.successes, k);
}
