#include "traced_sweep.hpp"

#include <chrono>
#include <fstream>
#include <iomanip>
#include <optional>
#include <stdexcept>

#include "exp/aggregator.hpp"
#include "exp/manifest.hpp"
#include "exp/sweep_report.hpp"
#include "exp/sweep_runner.hpp"
#include "mac/wake_pattern.hpp"
#include "protocols/multichannel.hpp"
#include "protocols/registry.hpp"
#include "sim/adversary.hpp"
#include "sim/run.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace wakeup;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// The three seed derivations and two factories below mirror the private
// helpers of exp/sweep_runner.cpp; the byte-identity check against
// exp::run_sweep fails the benchmark if they ever drift apart.

std::uint64_t ci_seed(std::uint64_t base_seed, std::uint64_t cell_tag) {
  return util::hash_words({base_seed, 0x4349ULL /* "CI" */, cell_tag});
}

std::uint64_t adversary_seed(std::uint64_t base_seed, std::uint64_t cell_tag) {
  return util::hash_words({base_seed, 0x414456ULL /* "ADV" */, cell_tag});
}

proto::ProtocolPtr build_registry_protocol(const exp::Cell& cell, std::uint64_t seed) {
  proto::ProtocolSpec spec;
  spec.name = cell.protocol;
  spec.n = cell.n;
  spec.k = cell.k;
  spec.s = cell.s;
  spec.seed = seed;
  return proto::make_protocol_by_name(spec);
}

proto::McProtocolPtr build_mc_protocol(const exp::Cell& cell, std::uint64_t seed) {
  if (cell.protocol == "striped_rr") {
    return proto::make_striped_round_robin(cell.n, cell.channels);
  }
  if (cell.protocol == "group_wag") {
    return proto::make_group_wait_and_go(cell.n, cell.k, cell.channels,
                                         comb::FamilyKind::kRandomized, seed);
  }
  if (cell.protocol == "random_rpd") {
    return proto::make_random_channel_rpd(cell.n, cell.channels, seed);
  }
  return proto::make_single_channel_adapter(build_registry_protocol(cell, seed), cell.channels);
}

/// Slots a static or C-channel trial walked from its first wake.
std::uint64_t walked_slots(bool success, std::int64_t rounds, std::uint64_t observed) {
  return success ? static_cast<std::uint64_t>(rounds) + 1 : observed;
}

/// One cell, as exp/sweep_runner.cpp's run_cell_impl runs it, with a span
/// around every layer call.
exp::CellRecord drive_cell(const exp::SweepSpec& spec, const exp::Cell& cell,
                           const DriveOptions& options, util::ThreadPool& pool,
                           SpanRecorder& spans, DriveCounts& counts) {
  const auto cell_span = spans.scope(kSpanCell, static_cast<std::int64_t>(cell.index));
  const auto id = static_cast<std::int64_t>(cell.index);

  sim::RunSpec run;
  run.trials = cell.trials;
  run.base_seed = spec.base_seed;
  run.cell_tag = cell.tag_hash;
  run.sim = spec.sim;
  run.sim.engine = options.force_interpreter ? sim::Engine::kInterpreter : cell.engine;
  run.impairment = cell.impairment;
  run.sim.energy = sim::EnergyModel::kListenAll;

  const auto registry_factory = [&cell, &spans, id](std::uint64_t seed) {
    const auto span = spans.scope("protocols.build", id);
    return build_registry_protocol(cell, seed);
  };

  const bool multichannel = cell.channels > 1 || exp::is_mc_strategy(cell.protocol);
  exp::Aggregator aggregator(cell.trials, /*dynamic=*/cell.dynamic);
  mac::WakePattern adversarial;
  if (cell.dynamic) {
    run.horizon = cell.horizon;
    run.arrival = cell.arrival;
    run.dynamic_n = cell.n;
    run.dynamic_k = cell.k;
    run.make_protocol = registry_factory;
    run.per_trial_dynamic = [&aggregator, &counts](std::uint64_t i,
                                                    const sim::DynamicResult& r) {
      aggregator.add(i, r);
      ++counts.trials;
      counts.slots += static_cast<std::uint64_t>(r.horizon);
    };
  } else {
    if (multichannel) {
      run.make_mc_protocol = [&cell, &spans, id](std::uint64_t seed) {
        const auto span = spans.scope("protocols.build", id);
        return build_mc_protocol(cell, seed);
      };
      run.per_trial_mc = [&aggregator, &counts, &cell](std::uint64_t i,
                                                        const sim::McSimResult& r) {
        aggregator.add(i, r);
        ++counts.trials;
        counts.slots += walked_slots(r.success, r.rounds,
                                     (r.silences + r.collisions + r.successes) / cell.channels);
      };
    } else {
      run.make_protocol = registry_factory;
      run.per_trial = [&aggregator, &counts](std::uint64_t i, const sim::SimResult& r) {
        aggregator.add(i, r);
        ++counts.trials;
        counts.slots += walked_slots(r.success, r.rounds, r.silences + r.collisions + r.successes);
      };
    }
    if (cell.pattern == exp::PatternKind::kAdversarial) {
      const auto span = spans.scope("sim.adversary", id);
      adversarial = sim::search_worst_pattern(registry_factory, cell.n, cell.k, /*restarts=*/3,
                                              /*steps_per_restart=*/32,
                                              adversary_seed(spec.base_seed, cell.tag_hash),
                                              run.sim)
                        .worst;
      run.pattern = &adversarial;
    } else {
      const mac::patterns::Kind kind = exp::generator_kind(cell.pattern);
      const std::uint32_t n = cell.n;
      const std::uint32_t k = cell.k;
      const mac::Slot s = cell.s;
      run.make_pattern = [kind, n, k, s, &spans, id](util::Rng& rng) {
        const auto span = spans.scope("mac.pattern", id);
        return mac::patterns::generate(kind, n, k, s, rng);
      };
    }
  }

  {
    const auto span = spans.scope("sim.run", id);
    (void)sim::Run(run, &pool);
  }

  exp::CellRecord record;
  record.cell = cell;
  const std::uint64_t seed = ci_seed(spec.base_seed, cell.tag_hash);
  {
    // Summaries alone: finalize without resampling.
    const auto span = spans.scope("exp.summaries", id);
    record.stats = aggregator.finalize(0, seed);
  }
  if (options.ci_resamples > 0) {
    // Summaries plus bootstrap; the bootstrap share is this span minus the
    // summaries span above.
    const auto span = spans.scope("exp.finalize", id);
    record.stats = aggregator.finalize(options.ci_resamples, seed);
  }
  if (!cell.dynamic) {  // dynamic cells carry no bound column
    record.bound = exp::cell_bound(cell);
    record.normalized_mean = record.bound > 0 && record.stats.rounds.count > 0
                                 ? record.stats.rounds.mean / record.bound
                                 : 0.0;
  }
  return record;
}

}  // namespace

SpanRecorder::Scope SpanRecorder::scope(const char* name, std::int64_t cell) {
  if (!enabled_) return Scope(this, -1);
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, cell, open_, now_ns(), 0});
  open_ = index;
  return Scope(this, index);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = recorder_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  recorder_->open_ = span.parent;
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] += static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw std::runtime_error("cannot write " + path);
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << std::fixed << std::setprecision(3);  // microseconds, to the nanosecond
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(span.start_ns - base) * 1e-3
        << ", \"dur\": " << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
        << ", \"args\": {\"cell\": " << span.cell << ", \"span\": " << i
        << ", \"parent\": " << span.parent << "}}";
  }
  out << "\n]}\n";
}

DriveCounts drive_sweep(const exp::SweepSpec& spec, const std::string& out_dir,
                        const DriveOptions& options, SpanRecorder& spans) {
  std::vector<exp::Cell> cells;
  exp::ManifestHeader header;
  header.base_seed = spec.base_seed;
  {
    const auto span = spans.scope("exp.expand", -1);
    cells = exp::expand(spec);
    header.grid_hash = exp::grid_fingerprint(cells, spec.base_seed);
  }
  header.cells = cells.size();
  if (!util::ensure_directory(out_dir)) {
    throw std::runtime_error("cannot create output directory " + out_dir);
  }
  util::ThreadPool pool(0);
  DriveCounts counts;
  std::vector<exp::CellRecord> records;
  records.reserve(cells.size());
  {
    std::optional<exp::ManifestWriter> writer;
    {
      const auto span = spans.scope("exp.manifest", -1);
      writer.emplace(out_dir + "/manifest.jsonl", header, /*append=*/false);
    }
    for (const exp::Cell& cell : cells) {
      records.push_back(drive_cell(spec, cell, options, pool, spans, counts));
      const auto span = spans.scope("exp.manifest", static_cast<std::int64_t>(cell.index));
      writer->append(records.back());
    }
  }
  const auto span = spans.scope("exp.report", -1);
  exp::apply_inflation_join(records);
  exp::write_csv_report(out_dir + "/report.csv", records);
  exp::write_json_report(out_dir + "/report.json", header, records);
  return counts;
}

}  // namespace perfbench
