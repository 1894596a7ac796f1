#pragma once

/// \file batch_engine.hpp
/// The word-matrix tile core: the word-parallel back-end of
/// `dispatch_wakeup`, of `dispatch_mc_wakeup` (sim/mc_batch_engine.hpp)
/// and of `dispatch_dynamic` (sim/dynamic.hpp) for oblivious protocols.
///
/// A static wake-up run, a C-lane run and a dynamic-traffic run are one
/// word-matrix resolve: every station reads the same fixed 0/1 schedule
/// matrix column by column, and the runs differ only in what happens to a
/// row after it succeeds.  One core (sim/batch_engine.cpp) advances one
/// *tile* of 64 * W slots per resolve round (W ramps 1 -> tile_words(),
/// default 8 -> 512 slots): each live station contributes one row of W
/// consecutive 64-slot schedule words to a station-major word matrix — the
/// rows whose start block is at or before the tile base come from one
/// `proto::ObliviousSchedule::schedule_tile` call, which lets a schedule
/// share per-slot work across stations — and every channel lane is
/// resolved for the whole tile with the util/simd.hpp kernels:
/// `or_accumulate` down the station axis into the lane's (any, multi) pair,
/// one impairment fold, `masked_popcount_pair` for the silence/collision
/// totals of fully resolved words, and `first_set_below` over the union of
/// the lanes to locate the first solo.  On each solo a rule set by the
/// driver decides what happens to the winner's row:
///
///  - halt: static wake-up and C-lane runs stop at the first solo;
///  - zero: the full-resolution drain removes the winner and re-resolves
///    the rest of the tile without it;
///  - refetch: dynamic traffic restarts the row from the station's next
///    head-of-line start and re-resolves the rest of the tile.  Each
///    refill refetches its row to the tile's end and re-reduces every row
///    from there, so a tile that put more rows back than it has words is
///    followed by a one-word tile and the ramp starts over: dense traffic
///    runs narrow tiles, sparse traffic (a refill every few words) keeps
///    wide ones.
///
/// Energy accounting counts each row's transmits from the words already
/// fetched.  Produces bit-identical results to the slot-by-slot
/// interpreters for every tile width and kernel table (asserted by
/// tests/test_engine_equivalence.cpp, test_mc_engine_equivalence.cpp and
/// test_dynamic_engine.cpp); traces are not supported, the dispatcher falls
/// back to the interpreter for those.

#include <cstddef>

#include "sim/simulator.hpp"

namespace wakeup::sim {

/// Widest tile the engines allocate for (words per station row).
inline constexpr std::size_t kMaxTileWords = 8;

/// Tile width in effect: 64-slot words fetched per live station per
/// resolve round, in [1, kMaxTileWords].  Defaults to kMaxTileWords;
/// overridable via `set_tile_words`.  Results are bit-identical for every
/// width — only the cost profile moves (tests sweep widths, benches use
/// width 1 as the pre-tiling scalar baseline).
[[nodiscard]] std::size_t tile_words() noexcept;

/// Overrides the tile width (clamped to [1, kMaxTileWords]); 0 restores
/// the default.  For tests and benches.
void set_tile_words(std::size_t words) noexcept;

/// Can `run_wakeup_batch` execute this (protocol, config) pair?
/// Requires an oblivious schedule and no trace recording.
[[nodiscard]] bool batch_engine_supports(const proto::Protocol& protocol,
                                         const SimConfig& config);

/// Runs `protocol` against `pattern` one word-matrix tile at a time.
/// Preconditions: `batch_engine_supports(protocol, config)`; throws
/// std::invalid_argument otherwise.
[[nodiscard]] SimResult run_wakeup_batch(const proto::Protocol& protocol,
                                         const mac::WakePattern& pattern,
                                         const SimConfig& config);

/// Station-slots the hybrid path interprets before it batches.
inline constexpr mac::Slot kWarmupStationSlots = 64;

/// Slots `run_wakeup_hybrid` interprets before batching: at most
/// kWarmupStationSlots station-slots, i.e. min(64, ⌊64 / k⌋) for a pattern
/// of k stations — the interpreter pays one make_runtime and one virtual
/// transmits per station per slot, the batch engine one hashed word per
/// station per 64 slots.  0 for cheap-word schedules
/// (`ObliviousSchedule::words_are_cheap`), under full resolution, and from
/// k = 65 on.
[[nodiscard]] mac::Slot hybrid_warmup_slots(const proto::ObliviousSchedule& schedule,
                                            const mac::WakePattern& pattern,
                                            const SimConfig& config);

/// The Engine::kAuto fast path: interprets a warm-up prefix of
/// hybrid_warmup_slots slots (short runs on a few stations never pay for
/// schedule tiles they do not need), then continues word-parallel.  Same
/// preconditions and bit-identical results as run_wakeup_batch.
[[nodiscard]] SimResult run_wakeup_hybrid(const proto::Protocol& protocol,
                                          const mac::WakePattern& pattern,
                                          const SimConfig& config);

}  // namespace wakeup::sim
