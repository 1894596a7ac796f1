#include "sim/mc_batch_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <vector>

#include "sim/batch_engine.hpp"
#include "sim/impairment_engine.hpp"
#include "util/simd.hpp"

namespace wakeup::sim {

bool mc_batch_supports(const proto::McProtocol& protocol) {
  const proto::ObliviousSchedule* schedule = protocol.oblivious_schedule();
  return schedule != nullptr && schedule->schedule_channels() == protocol.channels();
}

namespace {

namespace simd = util::simd;

/// Tile-wise C-lane core.  Mirrors the single-channel run_batch_from
/// (sim/batch_engine.cpp): one station-major matrix row of W words per
/// live station per resolve round, folded into its lane's (any, multi)
/// reduction rows; the multichannel model has no full-resolution drain,
/// so a tile either locates the first success slot (over all lanes, one
/// first_set_below over the per-word lane-solo union) or accumulates a
/// full tile of per-lane silence/collision counts via
/// masked_popcount_pair.
McSimResult run_mc_batch_from(const proto::ObliviousSchedule& schedule, std::uint32_t channels,
                              const mac::WakePattern& pattern, mac::Slot max_slots,
                              const ImpairmentPlan* plan) {
  McSimResult result;
  if (pattern.empty()) return result;
  if (plan != nullptr && plan->clean()) plan = nullptr;

  struct Active {
    mac::StationId id;
    mac::Slot wake;
    std::uint32_t lane;  ///< fixed channel (ObliviousSchedule::channel_lane)
  };

  const auto& arrivals = pattern.arrivals();  // sorted by wake
  const mac::Slot s = pattern.first_wake();
  result.s = s;

  mac::Slot budget = max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());
  const mac::Slot end = s + budget;  // exclusive

  const std::size_t W = tile_words();

  std::vector<Active> active;
  active.reserve(pattern.k());
  std::vector<std::uint64_t> matrix;  // station-major: row r = W words of active[r]
  matrix.reserve(pattern.k() * W);
  // Lane-major reduction rows: lane c occupies [c * W, c * W + W).
  std::vector<std::uint64_t> any(static_cast<std::size_t>(channels) * W);
  std::vector<std::uint64_t> multi(static_cast<std::size_t>(channels) * W);
  std::array<std::uint64_t, kMaxTileWords> pend{};
  std::array<std::uint64_t, kMaxTileWords> solo_union{};
  std::array<std::uint64_t, kMaxTileWords> masks{};

  std::size_t next_arrival = 0;

  // Tiles aligned to absolute 64-slot boundaries, like the single-channel
  // engine.  Tile widths ramp 1 -> W like the single-channel engine, so
  // short runs pay the pre-tiling fetch cost and long runs amortize W-fold.
  const mac::Slot first_block = s / 64 * 64;
  std::size_t cur = 1;

  for (mac::Slot tb = first_block; tb < end;
       tb += static_cast<mac::Slot>(64 * cur), cur = std::min<std::size_t>(cur * 2, W)) {
    const mac::Slot tile_end =
        std::min<mac::Slot>(tb + static_cast<mac::Slot>(64 * cur), end);
    const auto tw = static_cast<std::size_t>((tile_end - tb + 63) / 64);

    while (next_arrival < arrivals.size() && arrivals[next_arrival].wake < tile_end) {
      const auto& a = arrivals[next_arrival];
      const std::uint32_t lane = schedule.channel_lane(a.station, a.wake);
      if (lane >= channels) {
        throw std::invalid_argument("mc batch engine: channel_lane out of range");
      }
      active.push_back(Active{a.station, a.wake, lane});
      matrix.resize(active.size() * W, 0);
      ++next_arrival;
    }

    std::fill(any.begin(), any.end(), 0);
    std::fill(multi.begin(), multi.end(), 0);
    for (std::size_t r = 0; r < active.size(); ++r) {
      const Active& st = active[r];
      std::uint64_t* row = matrix.data() + r * W;
      std::size_t w0 = 0;
      mac::Slot from = tb;
      if (st.wake > tb) {
        from = st.wake / 64 * 64;
        w0 = static_cast<std::size_t>((from - tb) / 64);
        std::fill(row, row + w0, 0);
      }
      schedule.schedule_block(st.id, st.wake, from, row + w0, tw - w0);
      if (st.wake > from) row[w0] &= ~std::uint64_t{0} << (st.wake - from);
      simd::active().or_accumulate(any.data() + st.lane * W, multi.data() + st.lane * W, row,
                                   tw);
    }

    // Wideband impairment fold, every lane alike: corrupt slots collide
    // even when idle, noisy slots garble an actual transmission.  Tiles are
    // 64-aligned, so word w is plan word tb/64 + w.
    if (plan != nullptr) {
      const std::size_t gw = static_cast<std::size_t>(tb) / 64;
      for (std::uint32_t c = 0; c < channels; ++c) {
        std::uint64_t* any_c = any.data() + static_cast<std::size_t>(c) * W;
        std::uint64_t* multi_c = multi.data() + static_cast<std::size_t>(c) * W;
        for (std::size_t w = 0; w < tw; ++w) {
          const std::uint64_t corrupt = plan->corrupt_word(gw + w);
          multi_c[w] |= (any_c[w] & plan->noise_word(gw + w)) | corrupt;
          any_c[w] |= corrupt;
        }
      }
    }

    // Pending masks: the slots of each word inside [max(tb, s), end).
    for (std::size_t w = 0; w < tw; ++w) {
      const mac::Slot ws = tb + static_cast<mac::Slot>(64 * w);
      const auto width = static_cast<unsigned>(std::min<mac::Slot>(tile_end - ws, 64));
      std::uint64_t m = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
      if (s > ws) m &= ~std::uint64_t{0} << (s - ws);  // slots before s
      pend[w] = m;
    }

    // First solo-success slot over all lanes inside this tile, if any.
    for (std::size_t w = 0; w < tw; ++w) solo_union[w] = 0;
    for (std::uint32_t c = 0; c < channels; ++c) {
      const std::uint64_t* any_c = any.data() + static_cast<std::size_t>(c) * W;
      const std::uint64_t* multi_c = multi.data() + static_cast<std::size_t>(c) * W;
      for (std::size_t w = 0; w < tw; ++w) {
        solo_union[w] |= any_c[w] & ~multi_c[w] & pend[w];
      }
    }
    const std::size_t hit = simd::first_set_below(solo_union.data(), tw, 64 * tw);

    // Outcome masks: everything pending up to and including the success
    // slot (the slot loop stops right after processing it), or the whole
    // tile when no lane carries a solo.
    std::size_t count_words = tw;
    std::copy(pend.begin(), pend.begin() + static_cast<std::ptrdiff_t>(tw), masks.begin());
    if (hit != simd::kNoBit) {
      const std::size_t wq = hit / 64;
      const auto j = static_cast<unsigned>(hit % 64);
      const std::uint64_t upto =
          j == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (j + 1)) - 1;
      masks[wq] &= upto;
      count_words = wq + 1;
    }
    std::uint64_t mask_bits = 0;
    for (std::size_t w = 0; w < count_words; ++w) {
      mask_bits += static_cast<std::uint64_t>(std::popcount(masks[w]));
    }
    // Per lane, the counted slots partition into silence (~any), collision
    // (multi) and solo (any & ~multi) — count two, derive the third.
    for (std::uint32_t c = 0; c < channels; ++c) {
      std::uint64_t sil = 0;
      std::uint64_t col = 0;
      simd::active().masked_popcount_pair(any.data() + static_cast<std::size_t>(c) * W,
                                          multi.data() + static_cast<std::size_t>(c) * W,
                                          masks.data(), count_words, &sil, &col);
      result.silences += sil;
      result.collisions += col;
      result.successes += mask_bits - sil - col;
    }
    if (hit == simd::kNoBit) continue;

    const std::size_t wq = hit / 64;
    const auto j = static_cast<unsigned>(hit % 64);
    for (std::uint32_t c = 0; c < channels && result.success_channel < 0; ++c) {
      const std::uint64_t solo = any[static_cast<std::size_t>(c) * W + wq] &
                                 ~multi[static_cast<std::size_t>(c) * W + wq];
      if (((solo >> j) & 1u) != 0) result.success_channel = static_cast<std::int32_t>(c);
    }

    const mac::Slot t = tb + static_cast<mac::Slot>(hit);
    result.success = true;
    result.success_slot = t;
    result.rounds = t - s;
    for (std::size_t r = 0; r < active.size(); ++r) {
      if (active[r].lane == static_cast<std::uint32_t>(result.success_channel) &&
          ((matrix[r * W + wq] >> j) & 1u) != 0) {
        result.winner = active[r].id;
        break;
      }
    }
    return result;
  }
  return result;
}

}  // namespace

McSimResult run_mc_batch(const proto::McProtocol& protocol, const mac::WakePattern& pattern,
                         mac::Slot max_slots, const ImpairmentPlan* plan) {
  if (!mc_batch_supports(protocol)) {
    throw std::invalid_argument(
        "mc batch engine requires an oblivious schedule spanning all channels");
  }
  return run_mc_batch_from(*protocol.oblivious_schedule(), protocol.channels(), pattern,
                           max_slots, plan);
}

}  // namespace wakeup::sim
