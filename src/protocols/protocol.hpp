#pragma once

/// \file protocol.hpp
/// The protocol abstraction: a wake-up algorithm is a rule assigning every
/// station a transmission schedule as a function of its ID and wake time.
///
/// A `Protocol` is an immutable description shared by all stations (and all
/// simulation trials); `make_runtime` instantiates the per-station state.
/// Deterministic oblivious protocols (everything in the paper) ignore
/// feedback; the hook exists for the randomized/adaptive extensions.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "mac/types.hpp"

namespace wakeup::proto {

using mac::ChannelFeedback;
using mac::Slot;
using mac::StationId;

/// What a protocol needs from the environment — used by the Scenario
/// factory (core) and asserted by the simulator setup in benches.
struct Requirements {
  bool needs_global_clock = true;   ///< all paper protocols use the global clock
  bool needs_start_time = false;    ///< Scenario A: s known to every station
  bool needs_k = false;             ///< Scenario B: upper bound k known
  bool needs_collision_detection = false;  ///< beyond the paper's model
  bool randomized = false;          ///< uses coin flips
};

/// Per-station protocol execution state.
///
/// Contract: the owner calls `transmits(t)` exactly once for every slot
/// t >= the wake time passed to `make_runtime`, in strictly increasing
/// order, and (if it delivers feedback at all) calls `feedback(t, ...)`
/// after `transmits(t)` and before `transmits(t + 1)`.
class StationRuntime {
 public:
  virtual ~StationRuntime() = default;

  /// Does this station transmit in slot t?
  [[nodiscard]] virtual bool transmits(Slot t) = 0;

  /// What the station heard on the channel in slot t.
  virtual void feedback(Slot t, ChannelFeedback fb) {
    (void)t;
    (void)fb;
  }
};

/// Per-station execution state under *dynamic* traffic, where a station
/// serves a stream of packets instead of a single wake-up: each head-of-line
/// packet contends until delivered, then the next packet (if any) starts a
/// fresh contention.  Unlike StationRuntime, a DynamicStation lives for the
/// whole trial, so adaptive protocols can carry congestion estimates and
/// fairness state across packets.
///
/// Contract: the owner calls `packet_start(s)` whenever a new head-of-line
/// packet begins contending at slot s (including the first), then visits
/// slots t >= s in strictly increasing order while the station is
/// backlogged: `transmits(t)`, then `feedback(t, ...)`.  The owner may skip
/// every slot before `next_event`: a skipped slot gets no call.  The
/// successes (all other stations') among the backlogged slots a station
/// skipped reach it as one count, `heard_others(n)`, at its next visit
/// before `transmits` — only when it hears others (`hears_others`).  While
/// the queue is empty no calls are made; the next `packet_start` resumes
/// at a strictly later slot.
class DynamicStation {
 public:
  virtual ~DynamicStation() = default;

  /// A new head-of-line packet starts contending at slot `start`.
  virtual void packet_start(Slot start) = 0;

  /// The first slot in [t, limit) at which `transmits` may return true or
  /// a `transmits` + `feedback(kNothing, false)` pair may change state, or
  /// `limit` when there is none (the owner visits no slot >= limit: it is
  /// the horizon or the station's crash cutoff).  Asking changes nothing
  /// the station does: an answer may draw its randomness ahead, or apply
  /// now what a skipped slot would have applied (a window reopened at its
  /// end), but every later call behaves as if each slot had been visited.
  /// The answer must hold whatever `heard_others` later brings: a skipped
  /// success may change only state that a visited slot reads.  The owner
  /// may ask again from a slot it already asked from.  The default, `t`,
  /// asks for every slot.
  [[nodiscard]] virtual Slot next_event(Slot t, Slot limit) {
    (void)limit;
    return t;
  }

  /// Does this station transmit in slot t?
  [[nodiscard]] virtual bool transmits(Slot t) = 0;

  /// Can another station's success in a slot this station skipped change
  /// its state?  Asked once, when the station is made.  False lets the
  /// owner stop counting them; the default, true, hears them all.
  [[nodiscard]] virtual bool hears_others() const { return true; }

  /// `n` (> 0) successes of other stations fell in backlogged slots this
  /// station skipped since its last visit: each is the `feedback(s,
  /// kSuccess, false)` the skipped slot s would have brought.  Called at
  /// the next visit, before `transmits`.
  virtual void heard_others(std::uint64_t n) { (void)n; }

  /// What the station heard in slot t; `delivered` is true exactly when the
  /// slot's success was this station's own head-of-line packet (in which
  /// case fb == kSuccess and the owner follows up with `packet_start` if
  /// the queue is still non-empty).
  virtual void feedback(Slot t, ChannelFeedback fb, bool delivered) {
    (void)t;
    (void)fb;
    (void)delivered;
  }
};

/// Capability interface of deterministic, feedback-free ("oblivious")
/// protocols: the whole transmission schedule of a station is a pure
/// function of (station, wake slot), so it can be emitted as packed 64-slot
/// bit blocks and resolved word-parallel by the batch engines behind
/// `sim::Run` instead of one virtual call per slot per station.
///
/// The capability is channel-aware: a schedule spans `schedule_channels()`
/// channel lanes and pins every station to the single lane
/// `channel_lane(u, wake)` for its whole run.  Single-channel protocols are
/// the C = 1 specialization (the defaults — one lane, everyone on lane 0),
/// so the six paper protocols implement exactly the same interface as the
/// multichannel strategies and both feed the same word-parallel engines.
class ObliviousSchedule {
 public:
  virtual ~ObliviousSchedule() = default;

  // -- Channel lanes ----------------------------------------------------

  /// Number of channel lanes the schedule spans.  1 (default) is the
  /// paper's single multiple access channel; C > 1 is the multi-channel
  /// extension (mac/multichannel.hpp), where each slot resolves per lane.
  [[nodiscard]] virtual std::uint32_t schedule_channels() const { return 1; }

  /// The fixed channel lane station `u` acts on (transmits and listens)
  /// for its entire run.  Must be < schedule_channels() and constant over
  /// slots.  Oblivious *multichannel* protocols whose stations hop lanes
  /// mid-run do not fit this capability and stay on the slot interpreter.
  [[nodiscard]] virtual std::uint32_t channel_lane(StationId u, Slot wake) const {
    (void)u;
    (void)wake;
    return 0;
  }

  /// Writes `n_words` consecutive 64-slot blocks of station `u`'s schedule
  /// starting at slot `from`: bit j of out_words[w] covers slot
  /// from + 64*w + j and must equal what a fresh `make_runtime(u, wake)`
  /// runtime would answer from `transmits` at that slot (for multichannel
  /// protocols: the `transmit` flag of `act`, which always targets
  /// `channel_lane(u, wake)`), for every covered slot >= wake.  Bits
  /// covering slots earlier than `wake` are unspecified — callers must
  /// mask them out (the StationRuntime contract never queries those slots
  /// either).
  virtual void schedule_block(StationId u, Slot wake, Slot from, std::uint64_t* out_words,
                              std::size_t n_words) const = 0;

  /// One station of a `schedule_tile` call: its ID, its wake slot and the
  /// row its words go to.
  struct TileStation {
    StationId u;
    Slot wake;
    std::uint64_t* out_words;
  };

  /// Writes, for every station of `stations`, exactly the `n_words` words
  /// `schedule_block(u, wake, from, out_words, n_words)` would.  The batch
  /// engine fetches each tile's rows through this one call, so a schedule
  /// whose stations share work at a slot (the §5 matrix's row prefix, a
  /// randomized family's set prefix) can emit them together; the default
  /// loops over schedule_block.  Overrides make schedule_block their
  /// one-station call, so each schedule keeps one emitter.  Like
  /// schedule_block it is const and safe to call from many threads.
  virtual void schedule_tile(std::span<const TileStation> stations, Slot from,
                             std::size_t n_words) const {
    for (const TileStation& s : stations) schedule_block(s.u, s.wake, from, s.out_words, n_words);
  }

  /// Stations a schedule_tile override handles per pass in fixed-size
  /// stack scratch; larger tiles take several passes.
  static constexpr std::size_t kTileChunk = 256;

  /// Cost class of schedule_block, used by the auto dispatch to size its
  /// interpreted warm-up.  True means a word costs a handful of bit
  /// operations (round_robin's strided bits), so batching is worth it from
  /// the first slot; false (default) means words are hashed per slot, and
  /// the dispatcher interprets a short prefix first — at most
  /// sim::kWarmupStationSlots station-slots, so it shrinks as k grows —
  /// because most runs on the paper's protocols resolve within a few slots.
  [[nodiscard]] virtual bool words_are_cheap() const { return false; }
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Stable identifier used in reports and the registry.
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual Requirements requirements() const { return {}; }

  /// Creates the execution state for station `u` woken at slot `wake`.
  [[nodiscard]] virtual std::unique_ptr<StationRuntime> make_runtime(StationId u,
                                                                     Slot wake) const = 0;

  /// Non-null iff the protocol is oblivious (deterministic and
  /// feedback-free), in which case the returned schedule must agree with
  /// `make_runtime` bit for bit.  Adaptive/randomized protocols keep the
  /// default and run through the slot-by-slot interpreter.
  [[nodiscard]] virtual const ObliviousSchedule* oblivious_schedule() const { return nullptr; }

  /// Creates cross-packet execution state for station `u` under dynamic
  /// traffic.  The default (nullptr) tells the simulator to restart a fresh
  /// `make_runtime(u, start)` per packet — exactly right for oblivious
  /// protocols and memoryless randomized ones.  Adaptive protocols override
  /// this to carry state (contention windows, fairness shares) across the
  /// packets of one trial.
  [[nodiscard]] virtual std::unique_ptr<DynamicStation> make_dynamic_station(StationId u) const {
    (void)u;
    return nullptr;
  }
};

/// Protocols are immutable and shared across stations and trials.
using ProtocolPtr = std::shared_ptr<const Protocol>;

}  // namespace wakeup::proto
