#pragma once

/// \file mc_batch_engine.hpp
/// Word-parallel back-end for oblivious C-channel protocols
/// (proto::McProtocol::oblivious_schedule).
///
/// The same word-matrix tile scheme as the single-channel batch engine
/// (sim/batch_engine.hpp): one station-major row of tile_words() 64-slot
/// schedule words per live station per resolve round, with one
/// (any, multi) OR-reduction row pair per channel lane — every station's
/// row is OR-folded into its fixed lane
/// (`proto::ObliviousSchedule::channel_lane`) with the util/simd.hpp
/// kernels.  Per lane, silence = ~any, collision = multi,
/// success = any & ~multi; the first success slot over all lanes is
/// located with one `first_set_below` over the per-word lane-solo union,
/// and the resolved outcome totals come from `masked_popcount_pair` —
/// replacing the per-slot `mac::resolve_multi_slot` loop.  Single-channel
/// protocols are simply the C = 1 case of the same capability; they keep
/// their dedicated engine, which additionally supports the
/// full-resolution drain.
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
