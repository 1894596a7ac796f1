#pragma once

/// \file mc_batch_engine.hpp
/// Word-parallel back-end for oblivious C-channel protocols
/// (proto::McProtocol::oblivious_schedule).
///
/// A thin driver over the word-matrix tile core of sim/batch_engine.hpp,
/// which single-channel static and dynamic runs share: each station's row
/// is OR-folded into the (any, multi) pair of its fixed lane
/// (`proto::ObliviousSchedule::channel_lane`).  Per lane, silence = ~any,
/// collision = multi, success = any & ~multi; the first solo slot over all
/// lanes halts the run, and its lowest solo lane is the success channel.
/// The driver checks the lanes and sets `success_channel`; the multichannel
/// model has no full-resolution drain.
///
/// Produces bit-identical `McSimResult`s to the slot-by-slot multichannel
/// interpreter (asserted by tests/test_mc_engine_equivalence.cpp).

#include "sim/mc_simulator.hpp"
#include "sim/simulator.hpp"

namespace wakeup::sim {

/// Can the C-channel batch engine execute this protocol?  Requires an
/// oblivious schedule spanning exactly protocol.channels() lanes.
[[nodiscard]] bool mc_batch_supports(const proto::McProtocol& protocol);

/// Runs `protocol` against `pattern` one word-matrix tile at a time, all
/// lanes per round.  Precondition: `mc_batch_supports(protocol)`; throws
/// std::invalid_argument otherwise.  `max_slots <= 0` selects the auto
/// budget.  `plan` (nullable, not owned) folds one trial's wideband
/// impairment words into every lane's reduction rows — bit-identical to
/// the impaired multichannel interpreter.
[[nodiscard]] McSimResult run_mc_batch(const proto::McProtocol& protocol,
                                       const mac::WakePattern& pattern,
                                       mac::Slot max_slots = 0,
                                       const ImpairmentPlan* plan = nullptr);

}  // namespace wakeup::sim
