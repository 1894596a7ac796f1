/// Observability layer: registry semantics (counters/gauges/histograms,
/// runtime enable, reset), deterministic metrics.json ordering regardless
/// of thread interleaving, the trace-event recorder, and the
/// ExecutionTrace ring-buffer memory cap.  Every test also compiles (and
/// the exporter tests pass) in WAKEUP_OBS=OFF builds, where the registry
/// collapses to stubs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mac/trace.hpp"
#include "mac/types.hpp"
#include "mac/wake_pattern.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/protocol.hpp"
#include "protocols/round_robin.hpp"
#include "sim/dynamic.hpp"
#include "sim/run.hpp"
#include "util/thread_pool.hpp"

namespace wu = wakeup;
namespace obs = wakeup::obs;

namespace {

std::string tmp_path(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("wakeup_obs_test_" + name)).string();
  std::filesystem::remove(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Clears registry + recorder state around each test so ordering assertions
/// see only their own metrics (names stay interned — that is the contract).
struct ObsReset {
  ObsReset() {
    obs::reset();
    obs::trace_clear();
  }
  ~ObsReset() {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    obs::reset();
    obs::trace_clear();
  }
};

}  // namespace

// --------------------------------------------------------------- registry --

TEST(ObsRegistry, CompileFlagIsVisible) {
  // Informational: both build flavors are valid; the remaining tests branch.
  SUCCEED() << "WAKEUP_OBS compiled: " << (obs::kCompiled ? "yes" : "no");
}

TEST(ObsRegistry, CountersGaugesHistogramsRoundTripThroughSnapshot) {
  if (!obs::kCompiled) GTEST_SKIP() << "WAKEUP_OBS=OFF build";
  ObsReset guard;
  obs::set_enabled(true);

  const auto counter = obs::Counter::get("test.counter");
  counter.add(40);
  counter.inc();
  counter.inc();

  const auto gauge = obs::Gauge::get("test.gauge");
  gauge.set(7);
  gauge.maximize(12);
  gauge.maximize(3);  // below the peak: ignored

  const auto hist = obs::Histogram::get("test.hist");
  hist.observe(1);
  hist.observe(5);
  hist.observe(1000);

  const obs::Snapshot snap = obs::snapshot();
  ASSERT_TRUE(snap.count("test.counter"));
  EXPECT_EQ(snap.at("test.counter").value, 42u);
  ASSERT_TRUE(snap.count("test.gauge"));
  EXPECT_EQ(snap.at("test.gauge").value, 12u);
  ASSERT_TRUE(snap.count("test.hist"));
  const auto& h = snap.at("test.hist");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1006u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 1000u);
  EXPECT_FALSE(h.buckets.empty());

  obs::reset();
  const obs::Snapshot cleared = obs::snapshot();
  EXPECT_EQ(cleared.at("test.counter").value, 0u);
  EXPECT_EQ(cleared.at("test.gauge").value, 0u);
  EXPECT_EQ(cleared.at("test.hist").count, 0u);
}

TEST(ObsRegistry, GetIsIdempotentAcrossHandles) {
  if (!obs::kCompiled) GTEST_SKIP() << "WAKEUP_OBS=OFF build";
  ObsReset guard;
  const auto a = obs::Counter::get("test.same_name");
  const auto b = obs::Counter::get("test.same_name");
  a.add(2);
  b.add(3);
  EXPECT_EQ(obs::snapshot_value(obs::snapshot(), "test.same_name"), 5u);
}

TEST(ObsRegistry, CountsSurviveThreadExit) {
  if (!obs::kCompiled) GTEST_SKIP() << "WAKEUP_OBS=OFF build";
  ObsReset guard;
  const auto counter = obs::Counter::get("test.thread_exit");
  {
    std::thread t([&counter] { counter.add(100); });
    t.join();  // the thread's shard detaches; its total must be retired
  }
  EXPECT_EQ(obs::snapshot_value(obs::snapshot(), "test.thread_exit"), 100u);
}

TEST(ObsRegistry, SnapshotHelpersHandleAbsentNames) {
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(obs::snapshot_value(snap, "test.never_interned"), 0u);
  EXPECT_EQ(obs::snapshot_ratio(snap, "test.no_hits", "test.no_misses"), 0.0);
}

// -------------------------------------------------- deterministic export --

TEST(ObsExport, MetricsJsonOrderingIsIndependentOfThreadInterleaving) {
  if (!obs::kCompiled) GTEST_SKIP() << "WAKEUP_OBS=OFF build";
  // Same totals reached single-threaded vs. via racing threads (which
  // intern in scrambled orders) must export byte-identical JSON.
  const std::vector<std::string> names = {"test.ord.zeta", "test.ord.alpha", "test.ord.mid"};

  ObsReset guard;
  for (const auto& name : names) obs::Counter::get(name).add(10);
  const std::string single = obs::metrics_json_text(obs::snapshot());

  obs::reset();
  std::vector<std::thread> threads;
  threads.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    threads.emplace_back([&names, i] {
      // Each thread interns in a different rotation and adds in two steps.
      for (std::size_t j = 0; j < names.size(); ++j) {
        const auto c = obs::Counter::get(names[(i + j) % names.size()]);
        if (j == i) {
          c.add(6);
          c.add(4);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::string threaded = obs::metrics_json_text(obs::snapshot());

  EXPECT_EQ(single, threaded);
  // Lexicographic order: alpha before mid before zeta.
  const auto alpha = threaded.find("test.ord.alpha");
  const auto mid = threaded.find("test.ord.mid");
  const auto zeta = threaded.find("test.ord.zeta");
  ASSERT_NE(alpha, std::string::npos);
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zeta);
}

TEST(ObsExport, MetricsJsonAndObjectTextAreWellFormed) {
  // Runs in both flavors: OFF builds export the empty skeleton.
  ObsReset guard;
  obs::Counter::get("test.export.count").add(3);
  obs::Histogram::get("test.export.hist").observe(17);
  const obs::Snapshot snap = obs::snapshot();

  const std::string json = obs::metrics_json_text(snap);
  EXPECT_EQ(json.find("{\n  \"metrics\": {"), 0u);
  EXPECT_EQ(json.back(), '\n');

  const std::string object = obs::metrics_object_text(snap);
  EXPECT_EQ(object.front(), '{');
  EXPECT_EQ(object.back(), '}');
  EXPECT_EQ(object.find('\n'), std::string::npos);  // single line, embeddable

  if (obs::kCompiled) {
    EXPECT_NE(json.find("\"test.export.count\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);   // histogram body
    EXPECT_NE(object.find("\"test.export.count\": 3"), std::string::npos);
  } else {
    EXPECT_EQ(object, "{}");
  }

  const std::string path = tmp_path("metrics.json");
  obs::write_metrics_json(path);
  EXPECT_FALSE(slurp(path).empty());
  std::filesystem::remove(path);
}

// ----------------------------------------------------------- trace events --

TEST(ObsTrace, RecordsDurationsAndInstantsAndWritesOnePerLine) {
  ObsReset guard;
  obs::set_trace_enabled(true);
  obs::trace_set_process("test-process");
  const std::uint64_t t0 = obs::trace_now_us();
  obs::trace_duration("cell-a", "cell", t0, 25, {{"protocol", "round_robin"}, {"n", "64"}});
  obs::trace_instant("ping", "slot", t0 + 5);
  obs::set_trace_enabled(false);
  obs::trace_duration("ignored", "cell", t0, 1);  // disabled: dropped

  const std::string path = tmp_path("trace.json");
  obs::write_trace_json(path);
  const std::string text = slurp(path);
  std::filesystem::remove(path);

  EXPECT_EQ(text.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(text.find("]}"), std::string::npos);
  if (!obs::kCompiled) return;  // OFF: empty event list is all we require

  EXPECT_EQ(obs::trace_event_count(), 3u);  // process_name + duration + instant
  EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(text.find("test-process"), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\": 25"), std::string::npos);
  EXPECT_NE(text.find("\"protocol\": \"round_robin\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_EQ(text.find("ignored"), std::string::npos);
  EXPECT_NE(text.find("\"pid\": 0"), std::string::npos);
}

TEST(ObsTrace, ExecutionTraceRendersAsInstantEvents) {
  ObsReset guard;
  wu::mac::ExecutionTrace trace(/*record_transmitters=*/true);
  trace.add(0, wu::mac::SlotOutcome::kSilence, {});
  trace.add(1, wu::mac::SlotOutcome::kCollision, {2, 5});
  trace.add(2, wu::mac::SlotOutcome::kSuccess, {4});

  obs::set_trace_enabled(true);
  obs::trace_execution(trace, /*base_ts_us=*/100);
  obs::set_trace_enabled(false);
  if (obs::kCompiled) {
    EXPECT_EQ(obs::trace_event_count(), 3u);
  }
}

// --------------------------------------------- ExecutionTrace ring buffer --

TEST(ExecutionTraceRing, KeepsTheLastCapacityRecordsInOrder) {
  wu::mac::ExecutionTrace trace(false, 8, /*capacity=*/4);
  for (wu::mac::Slot slot = 0; slot < 10; ++slot) {
    trace.add(slot, wu::mac::SlotOutcome::kSilence, {});
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto ordered = trace.ordered();
  ASSERT_EQ(ordered.size(), 4u);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(ordered[i].slot, static_cast<wu::mac::Slot>(6 + i));  // the tail survives
  }
}

TEST(ExecutionTraceRing, UnboundedTraceNeverDrops) {
  wu::mac::ExecutionTrace trace;  // capacity 0 = unbounded
  for (wu::mac::Slot slot = 0; slot < 100; ++slot) {
    trace.add(slot, wu::mac::SlotOutcome::kSilence, {});
  }
  EXPECT_EQ(trace.size(), 100u);
  EXPECT_EQ(trace.dropped(), 0u);
  const auto ordered = trace.ordered();
  EXPECT_EQ(ordered.front().slot, 0);
  EXPECT_EQ(ordered.back().slot, 99);
}

TEST(ExecutionTraceRing, PartiallyFilledRingIsChronological) {
  wu::mac::ExecutionTrace trace(false, 8, /*capacity=*/16);
  for (wu::mac::Slot slot = 0; slot < 5; ++slot) {
    trace.add(slot, wu::mac::SlotOutcome::kSilence, {});
  }
  EXPECT_EQ(trace.dropped(), 0u);
  const auto ordered = trace.ordered();
  ASSERT_EQ(ordered.size(), 5u);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(ordered[i].slot, static_cast<wu::mac::Slot>(i));
  }
}

// ------------------------------------------------- hot-path instrumentation --

TEST(ObsInstrumentation, BatchEngineCountsEveryFetchedWord) {
  // round_robin at n = 1024 over a 960-slot budget: stations 1000..1002
  // never get their turn, so the run walks the whole 1-2-4-8 tile ramp
  // (4 tiles, 15 words).  The two stations awake at slot 0 take every word
  // through schedule_tile; the one waking at 300 (mid-tile) fetches its
  // own 3 + 8.
  ObsReset guard;
  obs::set_enabled(true);
  const wu::proto::RoundRobinProtocol protocol(1024);
  const wu::mac::WakePattern pattern(1024, {{1000, 0}, {1001, 0}, {1002, 300}});
  wu::sim::SimConfig config;
  config.engine = wu::sim::Engine::kBatch;
  config.max_slots = 960;
  const auto result =
      wu::sim::Run({.protocol = &protocol, .pattern = &pattern, .sim = config}).sim;
  EXPECT_FALSE(result.success);

  const auto snap = obs::snapshot();
  if (obs::kCompiled) {
    EXPECT_EQ(obs::snapshot_value(snap, "batch.tiles"), 4u);
    EXPECT_EQ(obs::snapshot_value(snap, "batch.words_fetched"), 15u + 15u + 11u);
  } else {
    EXPECT_TRUE(snap.empty());
  }

  // C lanes: striped round-robin at n = 1024 over C = 2 lanes gives
  // station u lane u % 2 and turn u / 2 of a 512-slot cycle.  Stations 900
  // (lane 0) and 901 (lane 1) both solo at slot 450, in the fourth tile
  // ([448, 960)), which halts the run on lane 0.  Station 900, awake from
  // slot 0, fetches 1 + 2 + 4 + 8 words; 901, waking at 100 inside the
  // second tile's first block, joins schedule_tile there for 2 + 4 + 8;
  // 902, waking at 300, fetches 3 words of the third tile and then 8.
  obs::reset();
  const auto striped = wu::proto::make_striped_round_robin(1024, 2);
  const wu::mac::WakePattern lanes(1024, {{900, 0}, {901, 100}, {902, 300}});
  const auto mc =
      wu::sim::Run({.mc_protocol = striped.get(), .pattern = &lanes, .sim = config}).mc;
  EXPECT_EQ(mc.success_slot, 450);
  EXPECT_EQ(mc.success_channel, 0);
  EXPECT_EQ(mc.successes, 2u);
  const auto mc_snap = obs::snapshot();
  if (obs::kCompiled) {
    EXPECT_EQ(obs::snapshot_value(mc_snap, "batch.tiles"), 4u);
    EXPECT_EQ(obs::snapshot_value(mc_snap, "batch.words_fetched"), 15u + 14u + 11u);
  }

  // Dynamic traffic: round_robin at n = 128 (station u sends at slots
  // u mod 128) over a 300-slot horizon.  Station 5 delivers its packets at
  // slots 5 and 133, station 70 its one at 198.  Tile 1, [0, 64), fetches
  // station 5's word, and after the delivery at 5 refetches it for the
  // packet arriving at 10 (2 words).  One refill is not more than the
  // tile's one word, so the ramp goes on: tile 2, [64, 192), fetches 2
  // words for each station (4); station 5's queue drains at 133, so tile
  // 3, [192, 300), fetches station 70's 2.  3 tiles, 2 + 4 + 2 words.
  obs::reset();
  const wu::proto::RoundRobinProtocol rr(128);
  const auto run_dynamic = [&](const wu::mac::DynamicScenario& scenario) {
    return wu::sim::Run({.protocol = &rr,
                         .horizon = 300,
                         .scenario = &scenario,
                         .sim = {.engine = wu::sim::Engine::kBatch}})
        .dynamic;
  };
  const wu::mac::DynamicScenario scenario(128, 300, {{5, 0}, {5, 10}, {70, 100}});
  const auto dyn = run_dynamic(scenario);
  EXPECT_EQ(dyn.delivered, 3u);
  EXPECT_EQ(dyn.latency, (std::vector<double>{6.0, 124.0, 99.0}));
  const auto dyn_snap = obs::snapshot();
  if (obs::kCompiled) {
    EXPECT_EQ(obs::snapshot_value(dyn_snap, "batch.tiles"), 3u);
    EXPECT_EQ(obs::snapshot_value(dyn_snap, "batch.words_fetched"), 2u + 4u + 2u);
  }

  // The same with station 7 sending packets at 0 and 1: tile 1 fetches
  // stations 5's and 7's words and refetches both, after the deliveries at
  // 5 and 7 (4 words).  Two refills in a one-word tile restart the ramp, so
  // tile 2 is one word again, [64, 128): a word for each of the three
  // stations (3), and no solo (station 70's slot 70 is before its
  // arrival).  Tile 3 doubles to [128, 256), 2 words for each station (6),
  // where every queue drains (133, 135, 198), which puts no row back; tile
  // 4, [256, 300), fetches nothing.  4 tiles, 4 + 3 + 6 words.
  obs::reset();
  const wu::mac::DynamicScenario dense(128, 300, {{5, 0}, {5, 10}, {7, 0}, {7, 1}, {70, 100}});
  const auto restarted = run_dynamic(dense);
  EXPECT_EQ(restarted.latency, (std::vector<double>{6.0, 8.0, 124.0, 135.0, 99.0}));
  const auto restart_snap = obs::snapshot();
  if (obs::kCompiled) {
    EXPECT_EQ(obs::snapshot_value(restart_snap, "batch.tiles"), 4u);
    EXPECT_EQ(obs::snapshot_value(restart_snap, "batch.words_fetched"), 4u + 3u + 6u);
  }
}

/// Station u transmits at the slots congruent to u mod 8 and says so
/// through next_event; the even stations hear others' successes.
class EveryEighthStation final : public wu::proto::DynamicStation {
 public:
  explicit EveryEighthStation(wu::mac::StationId u) : u_(u) {}

  void packet_start(wu::mac::Slot start) override { (void)start; }
  [[nodiscard]] wu::mac::Slot next_event(wu::mac::Slot t, wu::mac::Slot limit) override {
    return std::min(t + (static_cast<wu::mac::Slot>(u_) - t % 8 + 8) % 8, limit);
  }
  [[nodiscard]] bool transmits(wu::mac::Slot t) override {
    return t % 8 == static_cast<wu::mac::Slot>(u_);
  }
  [[nodiscard]] bool hears_others() const override { return u_ % 2 == 0; }

 private:
  wu::mac::StationId u_;
};

class EveryEighthProtocol final : public wu::proto::Protocol {
 public:
  [[nodiscard]] std::string name() const override { return "every_eighth"; }
  [[nodiscard]] std::unique_ptr<wu::proto::StationRuntime> make_runtime(
      wu::mac::StationId u, wu::mac::Slot wake) const override {
    (void)u;
    (void)wake;
    return nullptr;
  }
  [[nodiscard]] std::unique_ptr<wu::proto::DynamicStation> make_dynamic_station(
      wu::mac::StationId u) const override {
    return std::make_unique<EveryEighthStation>(u);
  }
};

TEST(ObsInstrumentation, DynamicInterpreterCountsVisitsAndHeardSuccesses) {
  // Station 1 has two packets at slot 0, station 3 one at 2, station 6 one
  // at 0.  The loop visits slot 0 (the arrivals; nobody is due to send), 1
  // (station 1 delivers; its next packet waits for slot 9), 2 (station 3's
  // arrival), 3 (station 3 delivers), 6 and 9: 6 visits.  Station 6 skipped
  // the successes at 1 and 3 and hears them at 6; station 1 skipped those
  // at 3 and 6 but is deaf to them.  heard = 2.
  ObsReset guard;
  obs::set_enabled(true);
  const EveryEighthProtocol protocol;
  const wu::mac::DynamicScenario scenario(8, 40, {{1, 0}, {1, 0}, {3, 2}, {6, 0}});
  const auto result = wu::sim::run_dynamic_interpreter(protocol, scenario);
  EXPECT_EQ(result.delivered, 4u);
  EXPECT_EQ(result.latency, (std::vector<double>{2.0, 2.0, 7.0, 10.0}));

  const auto snap = obs::snapshot();
  if (obs::kCompiled) {
    EXPECT_EQ(obs::snapshot_value(snap, "dynamic.visits"), 6u);
    EXPECT_EQ(obs::snapshot_value(snap, "dynamic.heard"), 2u);
  } else {
    EXPECT_TRUE(snap.empty());
  }
}

TEST(ObsInstrumentation, DynamicPeakBacklogIsTheLargestTrialBacklog) {
  // round_robin at n = 128 gives the k = 16 active stations 16 of every
  // 128 slots, far below the offered poisson:0.9, so every trial strands
  // packets — a different number in each of the four.
  ObsReset guard;
  obs::set_enabled(true);
  std::vector<std::uint64_t> backlogs(4);
  wu::sim::RunSpec spec;
  spec.make_protocol = [](std::uint64_t) {
    return std::make_shared<wu::proto::RoundRobinProtocol>(128);
  };
  spec.horizon = 512;
  spec.arrival = wu::mac::ArrivalSpec::parse("poisson:0.9");
  spec.dynamic_n = 128;
  spec.dynamic_k = 16;
  spec.trials = backlogs.size();
  spec.per_trial_dynamic = [&](std::uint64_t i, const wu::sim::DynamicResult& r) {
    backlogs[i] = r.backlog;
  };
  wu::util::ThreadPool pool(2);
  (void)wu::sim::Run(spec, &pool);

  const std::uint64_t peak = *std::max_element(backlogs.begin(), backlogs.end());
  EXPECT_GT(peak, *std::min_element(backlogs.begin(), backlogs.end()));
  const auto snap = obs::snapshot();
  if (obs::kCompiled) {
    EXPECT_EQ(obs::snapshot_value(snap, "dynamic.peak_backlog"), peak);
  } else {
    EXPECT_TRUE(snap.empty());
  }
}
