/// Per-station energy accounting: bit-identity of the interpreter's in-run
/// slot counting against the batch engines' masked popcounts over the rows
/// they fetch —
/// across energy models × tile widths {1, 2, 8} × forced-scalar kernels ×
/// full-resolution × impaired channels, static and dynamic — plus the
/// structural guarantees: energy is side-accounting (results identical with
/// kOff), sweep reports are byte-identical with obs on/off, and the energy
/// block lands in the dynamic-throughput / figure-scenario-b presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/presets.hpp"
#include "exp/sweep_runner.hpp"
#include "exp/sweep_spec.hpp"
#include "mac/wake_pattern.hpp"
#include "obs/metrics.hpp"
#include "protocols/registry.hpp"
#include "sim/batch_engine.hpp"
#include "sim/dynamic.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/run.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wu = wakeup;
namespace we = wakeup::exp;

namespace {

/// Restores the engine tuning knobs the tile/scalar sweeps below override.
struct EngineTuningGuard {
  ~EngineTuningGuard() {
    wu::sim::set_tile_words(0);
    wu::util::simd::set_force_scalar(false);
  }
};

const std::vector<std::size_t>& tile_widths() {
  static const std::vector<std::size_t> widths = {1, 2, 8};
  return widths;
}

const std::vector<wu::sim::EnergyModel>& energy_models() {
  static const std::vector<wu::sim::EnergyModel> models = {
      wu::sim::EnergyModel::kListenAll, wu::sim::EnergyModel::kListenUntilWoken};
  return models;
}

wu::proto::ProtocolPtr registry_protocol(const std::string& name, std::uint32_t n,
                                         std::uint32_t k) {
  wu::proto::ProtocolSpec spec;
  spec.name = name;
  spec.n = n;
  spec.k = k;
  spec.seed = 20130522;
  return wu::proto::make_protocol_by_name(spec);
}

wu::sim::SimResult run_one(const wu::proto::Protocol& protocol,
                           const wu::mac::WakePattern& pattern,
                           const wu::sim::SimConfig& config) {
  return wu::sim::Run({.protocol = &protocol, .pattern = &pattern, .sim = config}).sim;
}

/// Core-result fields only — the energy-off baseline comparison.
void expect_same_outcome(const wu::sim::SimResult& a, const wu::sim::SimResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.success_slot, b.success_slot) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.winner, b.winner) << label;
  EXPECT_EQ(a.silences, b.silences) << label;
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.successes, b.successes) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
}

void expect_same_energy(const wu::sim::SimResult& a, const wu::sim::SimResult& b,
                        const std::string& label) {
  expect_same_outcome(a, b, label);
  EXPECT_EQ(a.station_energy, b.station_energy) << label;
  EXPECT_EQ(a.station_transmits, b.station_transmits) << label;
}

std::string model_name(wu::sim::EnergyModel model) { return wu::sim::energy_model_name(model); }

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("wakeup_energy_test_" + name)).string();
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

}  // namespace

// ------------------------------------------------- static engine parity --

TEST(EnergyParity, StaticEnginesBitIdenticalAcrossTilesAndKernels) {
  // Uniform wakes end within a tile; simultaneous and batched wakes contend
  // across several, so the batch engine's per-tile transmit counts and the
  // kAuto warm-up prefix it carries are both on the line.
  EngineTuningGuard guard;
  using Kind = wu::mac::patterns::Kind;
  for (const char* name : {"round_robin", "wakeup_with_k", "wakeup_matrix"}) {
    const auto protocol = registry_protocol(name, 200, 16);
    ASSERT_NE(protocol->oblivious_schedule(), nullptr) << name;
    for (const auto model : energy_models()) {
      for (const Kind kind : {Kind::kUniform, Kind::kSimultaneous, Kind::kBatched}) {
        for (std::uint64_t trial = 0; trial < 4; ++trial) {
          const std::uint64_t seed = wu::util::hash_words(
              {0x454e4552ULL /* "ENER" */, static_cast<std::uint64_t>(model), trial});
          wu::util::Rng rng(seed);
          const auto pattern = wu::mac::patterns::generate(kind, 200, 16, 0, rng);

          wu::sim::SimConfig interp;
          interp.engine = wu::sim::Engine::kInterpreter;
          interp.energy = model;
          const auto reference = run_one(*protocol, pattern, interp);
          ASSERT_EQ(reference.station_energy.size(), pattern.k());
          ASSERT_EQ(reference.station_transmits.size(), pattern.k());

          for (const bool scalar : {false, true}) {
            wu::util::simd::set_force_scalar(scalar);
            for (const std::size_t words : tile_widths()) {
              wu::sim::set_tile_words(words);
              const std::string label = std::string(name) + " model=" + model_name(model) +
                                        " kind=" + wu::mac::patterns::kind_name(kind) +
                                        " trial=" + std::to_string(trial) +
                                        " tile=" + std::to_string(words) +
                                        (scalar ? " scalar" : "");
              wu::sim::SimConfig batch;
              batch.engine = wu::sim::Engine::kBatch;
              batch.energy = model;
              expect_same_energy(reference, run_one(*protocol, pattern, batch), label);

              wu::sim::SimConfig hybrid;  // kAuto: interpreted warm-up + batch tail
              hybrid.energy = model;
              expect_same_energy(reference, run_one(*protocol, pattern, hybrid),
                                 label + " auto");
            }
          }
          wu::sim::set_tile_words(0);
          wu::util::simd::set_force_scalar(false);
        }
      }
    }
  }
}

TEST(EnergyParity, FullResolutionDrainAgreesAcrossEngines) {
  EngineTuningGuard guard;
  for (const char* name : {"wakeup_with_k", "wakeup_matrix"}) {
    const auto protocol = registry_protocol(name, 64, 8);
    ASSERT_NE(protocol->oblivious_schedule(), nullptr) << name;
    for (const auto model : energy_models()) {
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        const std::uint64_t seed = wu::util::hash_words(
            {0x46554c4cULL /* "FULL" */, static_cast<std::uint64_t>(model), trial});
        wu::util::Rng rng(seed);
        const auto pattern =
            wu::mac::patterns::generate(wu::mac::patterns::Kind::kUniform, 64, 8, 3, rng);

        wu::sim::SimConfig interp;
        interp.engine = wu::sim::Engine::kInterpreter;
        interp.full_resolution = true;
        interp.energy = model;
        const auto reference = run_one(*protocol, pattern, interp);

        for (const std::size_t words : tile_widths()) {
          wu::sim::set_tile_words(words);
          wu::sim::SimConfig batch;
          batch.engine = wu::sim::Engine::kBatch;
          batch.full_resolution = true;
          batch.energy = model;
          expect_same_energy(reference, run_one(*protocol, pattern, batch),
                             std::string(name) + " full_resolution model=" +
                                 model_name(model) + " tile=" + std::to_string(words) +
                                 " trial=" + std::to_string(trial));
        }
        wu::sim::set_tile_words(0);
      }
    }
  }
}

TEST(EnergyParity, ImpairedChannelsPreserveStaticParity) {
  EngineTuningGuard guard;
  const wu::mac::Slot budget = 4096;
  const auto protocol = registry_protocol("wakeup_with_k", 200, 16);
  for (const char* text : {"noise:iid:0.1", "jam:budget:24:random",
                           "noise:iid:0.05+jam:budget:16:random"}) {
    const auto spec = wu::mac::ImpairmentSpec::parse(text);
    for (const auto model : energy_models()) {
      const std::uint64_t seed = wu::util::hash_words(
          {0x494d5045ULL /* "IMPE" */, static_cast<std::uint64_t>(model)});
      wu::util::Rng rng(seed);
      const auto pattern =
          wu::mac::patterns::generate(wu::mac::patterns::Kind::kUniform, 200, 16, 0, rng);
      const auto plan = wu::sim::compile_impairment(spec, seed, pattern.first_wake() + budget);

      wu::sim::SimConfig interp;
      interp.max_slots = budget;
      interp.impairment = &plan;
      interp.engine = wu::sim::Engine::kInterpreter;
      interp.energy = model;
      const auto reference = run_one(*protocol, pattern, interp);

      for (const std::size_t words : tile_widths()) {
        wu::sim::set_tile_words(words);
        wu::sim::SimConfig batch = interp;
        batch.engine = wu::sim::Engine::kBatch;
        expect_same_energy(reference, run_one(*protocol, pattern, batch),
                           std::string(text) + " model=" + model_name(model) + " tile=" +
                               std::to_string(words));
      }
      wu::sim::set_tile_words(0);
    }
  }
}

TEST(EnergyParity, AccountingNeverPerturbsTheSimulatedOutcome) {
  // kOff vs each model: everything except the energy vectors is identical,
  // and kOff leaves the vectors empty.
  const auto protocol = registry_protocol("wakeup_with_k", 128, 8);
  for (const auto engine : {wu::sim::Engine::kInterpreter, wu::sim::Engine::kBatch}) {
    wu::util::Rng rng(7);
    const auto pattern =
        wu::mac::patterns::generate(wu::mac::patterns::Kind::kUniform, 128, 8, 0, rng);
    wu::sim::SimConfig off;
    off.engine = engine;
    const auto baseline = run_one(*protocol, pattern, off);
    EXPECT_TRUE(baseline.station_energy.empty());
    EXPECT_TRUE(baseline.station_transmits.empty());
    for (const auto model : energy_models()) {
      wu::sim::SimConfig on = off;
      on.energy = model;
      const auto measured = run_one(*protocol, pattern, on);
      expect_same_outcome(baseline, measured, model_name(model));
      EXPECT_EQ(measured.station_energy.size(), pattern.k());
      // Transmit slots are a subset of awake slots, so transmits <= energy.
      std::uint64_t total_energy = 0;
      for (std::size_t i = 0; i < measured.station_energy.size(); ++i) {
        EXPECT_LE(measured.station_transmits[i], measured.station_energy[i]);
        total_energy += measured.station_energy[i];
      }
      EXPECT_GT(total_energy, 0u) << model_name(model);
    }
  }
}

TEST(EnergyParity, ListenUntilWokenNeverExceedsListenAll) {
  const auto protocol = registry_protocol("wakeup_with_k", 64, 8);
  wu::util::Rng rng(21);
  const auto pattern =
      wu::mac::patterns::generate(wu::mac::patterns::Kind::kUniform, 64, 8, 0, rng);
  wu::sim::SimConfig all;
  all.full_resolution = true;
  all.energy = wu::sim::EnergyModel::kListenAll;
  wu::sim::SimConfig woken = all;
  woken.energy = wu::sim::EnergyModel::kListenUntilWoken;
  const auto a = run_one(*protocol, pattern, all);
  const auto w = run_one(*protocol, pattern, woken);
  ASSERT_EQ(a.station_energy.size(), w.station_energy.size());
  for (std::size_t i = 0; i < a.station_energy.size(); ++i) {
    EXPECT_LE(w.station_energy[i], a.station_energy[i]) << i;
  }
  // In full-resolution mode some station departs before the drain completes,
  // so the models genuinely differ.
  EXPECT_NE(a.station_energy, w.station_energy);
}

// ------------------------------------------------ dynamic engine parity --

TEST(EnergyParity, DynamicEnginesBitIdenticalWithEnergy) {
  EngineTuningGuard guard;
  const wu::mac::Slot horizon = 1024;
  for (const char* name : {"round_robin", "wakeup_with_k"}) {
    const auto protocol = registry_protocol(name, 48, 12);
    ASSERT_TRUE(wu::sim::dynamic_batch_supports(*protocol)) << name;
    for (const auto model : energy_models()) {
      for (std::uint64_t trial = 0; trial < 3; ++trial) {
        const std::uint64_t seed = wu::util::hash_words(
            {0x44594e45ULL /* "DYNE" */, static_cast<std::uint64_t>(model), trial});
        wu::util::Rng rng(seed);
        const auto scenario = wu::mac::arrivals::generate(
            wu::mac::ArrivalSpec::parse("poisson:0.3"), 48, 12, horizon, rng);

        const auto reference =
            wu::sim::run_dynamic_interpreter(*protocol, scenario, nullptr, model);
        ASSERT_EQ(reference.station_energy.size(), reference.stations.size());

        for (const bool scalar : {false, true}) {
          wu::util::simd::set_force_scalar(scalar);
          for (const std::size_t words : tile_widths()) {
            wu::sim::set_tile_words(words);
            const auto batch =
                wu::sim::run_dynamic_batch(*protocol, scenario, nullptr, model);
            // DynamicResult's defaulted operator== covers the energy and
            // transmit vectors too.
            EXPECT_EQ(reference, batch)
                << name << " model=" << model_name(model) << " tile=" << words
                << (scalar ? " scalar" : "") << " trial=" << trial;
          }
        }
        wu::sim::set_tile_words(0);
        wu::util::simd::set_force_scalar(false);
      }
    }
  }
}

TEST(EnergyParity, DynamicFaultModelsPreserveParity) {
  EngineTuningGuard guard;
  const wu::mac::Slot horizon = 768;
  const auto protocol = registry_protocol("wakeup_with_k", 48, 12);
  for (const char* text :
       {"crash:0.25:100", "byzantine:0.125",
        "noise:iid:0.05+jam:budget:16:random+crash:0.2:64+byzantine:0.1"}) {
    const auto ispec = wu::mac::ImpairmentSpec::parse(text);
    for (const auto model : energy_models()) {
      const std::uint64_t seed = wu::util::hash_words(
          {0x44594d50ULL /* "DYMP" */, static_cast<std::uint64_t>(model)});
      wu::util::Rng rng(seed);
      const auto scenario = wu::mac::arrivals::generate(
          wu::mac::ArrivalSpec::parse("bursty:0.5:0.05"), 48, 12, horizon, rng);
      const auto plan =
          wu::sim::compile_impairment(ispec, seed, horizon, &scenario.stations());

      const auto reference =
          wu::sim::run_dynamic_interpreter(*protocol, scenario, &plan, model);
      for (const std::size_t words : tile_widths()) {
        wu::sim::set_tile_words(words);
        EXPECT_EQ(reference, wu::sim::run_dynamic_batch(*protocol, scenario, &plan, model))
            << text << " model=" << model_name(model) << " tile=" << words;
      }
      wu::sim::set_tile_words(0);

      // Byzantine stations never follow the protocol and pay zero.
      if (plan.byzantine.empty()) continue;
      for (std::size_t i = 0; i < reference.stations.size(); ++i) {
        if (std::find(plan.byzantine.begin(), plan.byzantine.end(), reference.stations[i]) !=
            plan.byzantine.end()) {
          EXPECT_EQ(reference.station_energy[i], 0u) << text;
          EXPECT_EQ(reference.station_transmits[i], 0u) << text;
        }
      }
    }
  }
}

// -------------------------------------------- sweep reports + obs layer --

TEST(EnergySweep, ReportsByteIdenticalWithObsOnAndOff) {
  // The observability contract: flipping the registry/trace at runtime must
  // not move a single byte of the scientific outputs.
  wu::obs::set_enabled(false);
  const auto spec = small_spec();
  we::SweepOptions off;
  off.out_dir = fresh_dir("obs_off");
  off.ci_resamples = 200;
  const auto off_outcome = we::run_sweep(spec, off);
  ASSERT_TRUE(off_outcome.completed);

  wu::obs::set_enabled(true);
  we::SweepOptions on;
  on.out_dir = fresh_dir("obs_on");
  on.ci_resamples = 200;
  on.metrics_path = on.out_dir + "/metrics.json";
  const auto on_outcome = we::run_sweep(spec, on);
  wu::obs::set_enabled(false);
  ASSERT_TRUE(on_outcome.completed);

  EXPECT_EQ(slurp(off_outcome.csv_path), slurp(on_outcome.csv_path));
  EXPECT_EQ(slurp(off_outcome.json_path), slurp(on_outcome.json_path));

  // The metrics sidecar exists and is well-formed on both build flavors.
  const std::string metrics = slurp(on.metrics_path);
  EXPECT_NE(metrics.find("\"metrics\""), std::string::npos);
  if (wu::obs::kCompiled) {
    EXPECT_NE(metrics.find("sweep.cells_run"), std::string::npos);
  }
}

TEST(EnergySweep, EnergyBlockPresentInPresetReports) {
  // Shrunken presets keep their identity (protocol set, pattern/arrival
  // axes) while running in test time; every completed cell must carry the
  // energy block, with interpreter-equals-batch already pinned above.
  for (const char* preset : {"dynamic-throughput", "figure-scenario-b"}) {
    we::SweepSpec spec = we::make_preset(preset);
    spec.protocols.resize(1);
    spec.ns = {spec.ns.front()};
    spec.ks = {spec.ks.front()};
    if (!spec.arrivals.empty()) {
      spec.arrivals.resize(1);
      spec.horizon = 512;
    }
    if (spec.patterns.size() > 1) spec.patterns.resize(1);
    spec.trials = 4;

    we::SweepOptions options;
    options.out_dir = fresh_dir(std::string("preset_") + preset);
    options.ci_resamples = 100;
    const auto outcome = we::run_sweep(spec, options);
    ASSERT_TRUE(outcome.completed) << preset;

    const auto manifest = we::load_manifest(outcome.manifest_path);
    ASSERT_FALSE(manifest.by_tag.empty()) << preset;
    for (const auto& [tag, record] : manifest.by_tag) {
      EXPECT_GT(record.stats.energy_mean.count, 0u) << preset << " " << tag;
      EXPECT_GT(record.stats.energy_mean.mean, 0.0) << preset << " " << tag;
      EXPECT_GE(record.stats.energy_max.mean, record.stats.energy_mean.mean)
          << preset << " " << tag;
    }
    // The CSV header advertises the energy columns (manifest v4 schema).
    const std::string csv = slurp(outcome.csv_path);
    EXPECT_NE(csv.find("energy_mean"), std::string::npos) << preset;
    EXPECT_NE(csv.find("energy_max"), std::string::npos) << preset;
  }
}
