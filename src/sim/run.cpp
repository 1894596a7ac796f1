#include "sim/run.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/adversary.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/results_sink.hpp"
#include "util/rng.hpp"

namespace wakeup::sim {

namespace {

// Spec-level spellings of the public seed hooks (bottom of this file).
std::uint64_t trial_seed(const RunSpec& spec, std::uint64_t i) {
  return sim::trial_seed(spec.base_seed, spec.cell_tag, i);
}

std::uint64_t cell_protocol_seed(const RunSpec& spec) {
  return sim::cell_protocol_seed(spec.base_seed, spec.cell_tag);
}

/// Per-trial protocol stream for randomized protocols: derived from the
/// trial seed but distinct from the wake pattern's Rng stream, so the
/// pattern alone consumes the trial seed.
std::uint64_t trial_protocol_seed(std::uint64_t seed) {
  return util::hash_words({seed, 0x50524fULL /* "PRO" */});
}

/// Per-trial impairment plan for a static run, covering every slot the
/// trial may walk: [0, first_wake + budget); it realizes only the words
/// the trial reads.  The plan seed is the trial seed, so realizations vary
/// per trial like wake patterns do.
ImpairmentPlan compile_static_plan(const RunSpec& spec, std::uint64_t seed,
                                   const mac::WakePattern& pattern,
                                   const std::vector<mac::Slot>* jam_override) {
  if (pattern.empty()) return {};
  mac::Slot budget = spec.sim.max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());
  return compile_impairment(spec.impairment, seed, pattern.first_wake() + budget, nullptr,
                            jam_override);
}

/// Resolves an adversarial jam spec into the slot list every trial of the
/// cell will face: one hill-climb (sim/adversary.hpp), seeded from the
/// cell identity, against trial 0's pattern.  Returns an empty vector for
/// every other jam schedule (they realize per trial inside the compiler).
std::vector<mac::Slot> resolve_adversarial_jam(const RunSpec& spec,
                                               const proto::Protocol& protocol) {
  if (!spec.impairment.has_jam() ||
      spec.impairment.jam_sched != mac::JamSchedule::kAdversarial) {
    return {};
  }
  mac::WakePattern generated;
  const mac::WakePattern* target = spec.pattern;
  if (spec.make_pattern) {
    util::Rng rng(trial_seed(spec, 0));
    generated = spec.make_pattern(rng);
    target = &generated;
  }
  constexpr std::uint32_t kRestarts = 3;
  constexpr std::uint32_t kSteps = 24;
  return search_worst_jam(protocol, *target, spec.impairment, kRestarts, kSteps,
                          util::hash_words({spec.base_seed, 0x4a414dULL /* "JAM" */,
                                            spec.cell_tag}),
                          spec.sim)
      .slots;
}

void for_each_trial(std::uint64_t trials, util::ThreadPool* pool,
                    const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(0, trials, body);
  } else {
    for (std::size_t i = 0; i < trials; ++i) body(i);
  }
}

void validate(const RunSpec& spec) {
  const bool multichannel =
      spec.mc_protocol != nullptr || static_cast<bool>(spec.make_mc_protocol);
  const int protocol_sources = (spec.protocol != nullptr ? 1 : 0) +
                               (spec.mc_protocol != nullptr ? 1 : 0) +
                               (spec.make_protocol ? 1 : 0) + (spec.make_mc_protocol ? 1 : 0);
  if (protocol_sources != 1) {
    throw std::invalid_argument(
        "RunSpec: exactly one of protocol / mc_protocol / make_protocol / make_mc_protocol");
  }
  const int pattern_sources =
      (spec.pattern != nullptr ? 1 : 0) + (spec.make_pattern ? 1 : 0);

  // Impairment placement: fault clauses draw their stations from a dynamic
  // scenario's population, and the adversarial jam search climbs over the
  // static single-channel stack — name the offending spec in the rejection.
  const bool adversarial_jam = spec.impairment.has_jam() &&
                               spec.impairment.jam_sched == mac::JamSchedule::kAdversarial;
  if (spec.horizon > 0 && adversarial_jam) {
    throw std::invalid_argument(
        "RunSpec: adversarial jam ('" + spec.impairment.name() +
        "') needs a static single-channel run, not dynamic traffic");
  }
  if (spec.horizon <= 0 && spec.impairment.has_faults()) {
    throw std::invalid_argument("RunSpec: crash/byzantine faults ('" + spec.impairment.name() +
                                "') need dynamic mode (horizon > 0)");
  }
  if (multichannel && adversarial_jam) {
    throw std::invalid_argument("RunSpec: adversarial jam ('" + spec.impairment.name() +
                                "') is single-channel only");
  }

  if (spec.horizon > 0) {
    // Dynamic traffic: single channel, one traffic source, dynamic sinks.
    if (multichannel) {
      throw std::invalid_argument("RunSpec: dynamic traffic (horizon > 0) is single-channel");
    }
    if (pattern_sources != 0) {
      throw std::invalid_argument(
          "RunSpec: dynamic runs take traffic from scenario/arrival, not pattern/make_pattern");
    }
    const bool generated = spec.dynamic_n > 0 && spec.dynamic_k > 0;
    if ((spec.scenario != nullptr) == generated) {
      throw std::invalid_argument(
          "RunSpec: dynamic runs need exactly one of scenario / (arrival + dynamic_n + "
          "dynamic_k)");
    }
    if (spec.scenario == nullptr && spec.arrival.kind == mac::ArrivalKind::kReplay) {
      throw std::invalid_argument(
          "RunSpec: replay arrivals need an explicit scenario (they cannot be generated)");
    }
    if (generated && spec.dynamic_k > spec.dynamic_n) {
      throw std::invalid_argument("RunSpec: dynamic_k must be <= dynamic_n");
    }
    if (spec.sim.record_trace || spec.sim.full_resolution ||
        spec.sim.feedback != mac::FeedbackModel::kNone) {
      throw std::invalid_argument(
          "RunSpec: dynamic runs support neither traces, full resolution, nor CD feedback");
    }
    if (spec.per_trial || spec.per_trial_mc || spec.trial_csv != nullptr) {
      throw std::invalid_argument("RunSpec: dynamic runs report through per_trial_dynamic");
    }
    return;
  }

  if (pattern_sources != 1) {
    throw std::invalid_argument("RunSpec: exactly one of pattern / make_pattern");
  }
  if (spec.scenario != nullptr || spec.per_trial_dynamic) {
    throw std::invalid_argument(
        "RunSpec: scenario / per_trial_dynamic need dynamic mode (horizon > 0)");
  }
  // A sink of the wrong channel model would compile and run but never
  // fire — reject it instead of silently dropping every trial.
  if (multichannel && spec.per_trial) {
    throw std::invalid_argument("RunSpec: multichannel runs report through per_trial_mc");
  }
  if (!multichannel && spec.per_trial_mc) {
    throw std::invalid_argument("RunSpec: single-channel runs report through per_trial");
  }
  if (multichannel && (spec.sim.record_trace || spec.sim.full_resolution ||
                       spec.sim.feedback != mac::FeedbackModel::kNone)) {
    throw std::invalid_argument(
        "RunSpec: multichannel runs support neither traces, full resolution, nor CD feedback");
  }
}

// -------------------------------------------------------- dynamic traffic --

/// Dynamic cells: a plain per-trial loop.  A trial cannot fail: the
/// horizon is the budget and every slot of it resolves, so `failures`
/// stays 0 by construction.
void run_dynamic(const RunSpec& spec, util::ThreadPool* pool, RunOutcome& out) {
  proto::ProtocolPtr owned;
  const proto::Protocol* protocol = spec.protocol;
  if (protocol == nullptr) {
    owned = spec.make_protocol(cell_protocol_seed(spec));
    protocol = owned.get();
  }
  const bool randomized =
      protocol->requirements().randomized && static_cast<bool>(spec.make_protocol);

  for_each_trial(spec.trials, pool, [&](std::size_t i) {
    const std::uint64_t seed = trial_seed(spec, i);
    util::Rng rng(seed);
    // Generated scenarios draw from the trial stream exactly where a wake
    // pattern would, so (base_seed, cell_tag, i) pins the traffic.
    mac::DynamicScenario generated;
    if (spec.scenario == nullptr) {
      generated = mac::arrivals::generate(spec.arrival, spec.dynamic_n, spec.dynamic_k,
                                          spec.horizon, rng);
    }
    const mac::DynamicScenario& scenario =
        spec.scenario != nullptr ? *spec.scenario : generated;
    const proto::ProtocolPtr rebuilt =
        randomized ? spec.make_protocol(trial_protocol_seed(seed)) : nullptr;
    // One impairment realization per trial; fault clauses draw their
    // stations from this trial's scenario population.  A plan realizes as
    // it is read, so a caller-set one is copied: each trial reads its own.
    ImpairmentPlan plan;
    const ImpairmentPlan* plan_ptr = nullptr;
    if (!spec.impairment.clean()) {
      plan = compile_impairment(spec.impairment, seed, spec.horizon, &scenario.stations());
      plan_ptr = &plan;
    } else if (spec.sim.impairment != nullptr) {
      plan = *spec.sim.impairment;
      plan_ptr = &plan;
    }
    DynamicResult r = dispatch_dynamic(rebuilt ? *rebuilt : *protocol, scenario,
                                       spec.sim.engine, plan_ptr, spec.sim.energy);
    if (obs::active()) {
      static const auto g_peak_backlog = obs::Gauge::get("dynamic.peak_backlog");
      g_peak_backlog.maximize(r.backlog);
    }
    if (spec.per_trial_dynamic) spec.per_trial_dynamic(i, r);
    out.trials.add(i, r);
    if (spec.trials == 1) out.dynamic = std::move(r);
  });
}

// ---------------------------------------------------------- static cells --

/// What a static cell needs from its channel model: where the spec keeps
/// the protocol, how a trial dispatches, where its result is reported, and
/// the cell's adversarial jam placement.
struct SingleChannel {
  using Protocol = proto::Protocol;
  using Result = SimResult;
  static const Protocol* fixed(const RunSpec& spec) { return spec.protocol; }
  static const auto& builder(const RunSpec& spec) { return spec.make_protocol; }
  static bool randomized(const Protocol& protocol) {
    return protocol.requirements().randomized;
  }
  static Result dispatch(const Protocol& protocol, const mac::WakePattern& pattern,
                         const SimConfig& config) {
    return dispatch_wakeup(protocol, pattern, config);
  }
  static void record(const RunSpec& spec, RunOutcome& out, std::uint64_t i, const Result& r) {
    if (spec.trials == 1) out.sim = r;
    if (spec.per_trial) spec.per_trial(i, r);
  }
  static std::vector<mac::Slot> jam(const RunSpec& spec, const Protocol& protocol) {
    return resolve_adversarial_jam(spec, protocol);
  }
};

struct MultiChannel {
  using Protocol = proto::McProtocol;
  using Result = McSimResult;
  static const Protocol* fixed(const RunSpec& spec) { return spec.mc_protocol; }
  static const auto& builder(const RunSpec& spec) { return spec.make_mc_protocol; }
  static bool randomized(const Protocol& protocol) { return protocol.randomized(); }
  static Result dispatch(const Protocol& protocol, const mac::WakePattern& pattern,
                         const SimConfig& config) {
    return dispatch_mc_wakeup(protocol, pattern, config);
  }
  static void record(const RunSpec& spec, RunOutcome& out, std::uint64_t i, const Result& r) {
    if (spec.trials == 1) out.mc = r;
    if (spec.per_trial_mc) spec.per_trial_mc(i, r);
  }
  static std::vector<mac::Slot> jam(const RunSpec& spec, const Protocol& protocol) {
    (void)spec;  // adversarial jam is single-channel only (validate)
    (void)protocol;
    return {};
  }
};

/// Static cells: one per-trial loop for either channel model.  The
/// protocol is hoisted per the seed contract; each trial draws its pattern
/// and its impairment realization from its own seed and dispatches on
/// spec.sim.engine.
template <class Model>
void run_static(const RunSpec& spec, util::ThreadPool* pool, RunOutcome& out) {
  std::shared_ptr<const typename Model::Protocol> owned;
  const typename Model::Protocol* protocol = Model::fixed(spec);
  if (protocol == nullptr) {
    owned = Model::builder(spec)(cell_protocol_seed(spec));
    protocol = owned.get();
  }
  // Randomized protocols differ per trial (private coins) — but only a
  // seeded builder can rebuild them; a fixed instance is shared as-is.
  const bool randomized =
      Model::randomized(*protocol) && static_cast<bool>(Model::builder(spec));

  // Impaired cells compile one plan per trial (and resolve an adversarial
  // jam placement once, here); clean cells run spec.sim verbatim.
  const bool impaired = !spec.impairment.clean();
  const std::vector<mac::Slot> jam_slots =
      impaired ? Model::jam(spec, *protocol) : std::vector<mac::Slot>{};
  const std::vector<mac::Slot>* jam_override = jam_slots.empty() ? nullptr : &jam_slots;

  for_each_trial(spec.trials, pool, [&](std::size_t i) {
    const std::uint64_t seed = trial_seed(spec, i);
    util::Rng rng(seed);
    mac::WakePattern generated;
    if (spec.make_pattern) generated = spec.make_pattern(rng);
    const mac::WakePattern& pattern = spec.make_pattern ? generated : *spec.pattern;
    const std::shared_ptr<const typename Model::Protocol> rebuilt =
        randomized ? Model::builder(spec)(trial_protocol_seed(seed)) : nullptr;
    // A plan realizes as it is read, so a caller-set one is copied: each
    // trial reads its own.
    ImpairmentPlan plan;
    SimConfig cfg = spec.sim;
    if (impaired) {
      plan = compile_static_plan(spec, seed, pattern, jam_override);
      cfg.impairment = &plan;
    } else if (spec.sim.impairment != nullptr) {
      plan = *spec.sim.impairment;
      cfg.impairment = &plan;
    }
    const typename Model::Result r = Model::dispatch(rebuilt ? *rebuilt : *protocol, pattern, cfg);
    out.trials.add(i, r);
    Model::record(spec, out, i, r);
    if (spec.trial_csv != nullptr) spec.trial_csv->write(i, r);
  });
}

}  // namespace

RunOutcome Run(const RunSpec& spec, util::ThreadPool* pool) {
  validate(spec);
  // Multi-trial specs parallelize on the process-wide shared pool when the
  // caller passes none — unless this thread already *is* a pool worker
  // (nested Run inside a trial), where queueing on the same pool could
  // deadlock; those run inline, preserving the determinism contract.
  if (pool == nullptr && spec.trials > 1 && util::ThreadPool::current() == nullptr) {
    pool = &util::ThreadPool::shared();
  }
  RunOutcome out;
  out.multichannel = spec.mc_protocol != nullptr || static_cast<bool>(spec.make_mc_protocol);
  out.dynamic_mode = spec.horizon > 0;
  out.trials = CellTrials(spec.trials, out.dynamic_mode);
  if (out.dynamic_mode) {
    run_dynamic(spec, pool, out);
  } else if (out.multichannel) {
    run_static<MultiChannel>(spec, pool, out);
  } else {
    run_static<SingleChannel>(spec, pool, out);
  }
  return out;
}

double normalized_mean(const CellStats& stats, double bound) {
  if (bound <= 0.0 || stats.rounds.count == 0) return 0.0;
  return stats.rounds.mean / bound;
}

// Seed derivations — the documented RunSpec contract, stable since the
// pre-facade harness so historical sweep results stay reproducible.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t cell_tag, std::uint64_t trial) {
  return util::hash_words({base_seed, 0x5452ULL /* "TR" */, cell_tag, trial});
}

std::uint64_t cell_protocol_seed(std::uint64_t base_seed, std::uint64_t cell_tag) {
  return util::hash_words({base_seed, 0x50524f544fULL /* "PROTO" */, cell_tag});
}

}  // namespace wakeup::sim
