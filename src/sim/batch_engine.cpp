#include "sim/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/dynamic.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/interpreter.hpp"
#include "sim/mc_batch_engine.hpp"
#include "util/simd.hpp"

namespace wakeup::sim {

namespace {

std::atomic<std::size_t> g_tile_words{kMaxTileWords};

}  // namespace

std::size_t tile_words() noexcept { return g_tile_words.load(std::memory_order_relaxed); }

void set_tile_words(std::size_t words) noexcept {
  g_tile_words.store(words == 0 ? kMaxTileWords : std::min(words, kMaxTileWords),
                     std::memory_order_relaxed);
}

bool batch_engine_supports(const proto::Protocol& protocol, const SimConfig& config) {
  return protocol.oblivious_schedule() != nullptr && !config.record_trace;
}

bool mc_batch_supports(const proto::McProtocol& protocol) {
  const proto::ObliviousSchedule* schedule = protocol.oblivious_schedule();
  return schedule != nullptr && schedule->schedule_channels() == protocol.channels();
}

namespace {

namespace simd = util::simd;

/// A start or cutoff that never comes.
constexpr mac::Slot kNever = std::numeric_limits<mac::Slot>::max();
/// Returned by a solo rule to stop the run at the solo's slot.
constexpr mac::Slot kHalt = -1;

/// One row of the word matrix: a station contending from `start`.
struct TileRow {
  mac::StationId id = 0;
  mac::Slot start = kNever;   ///< the schedule's `wake` for this contention
  mac::Slot cutoff = kNever;  ///< silent from this slot on (a crashed station)
  std::uint32_t lane = 0;     ///< ObliviousSchedule::channel_lane
};

/// Outcome totals, summed over lanes, and the last slot resolved.
struct TileTotals {
  std::uint64_t silences = 0;
  std::uint64_t collisions = 0;
  std::uint64_t successes = 0;
  mac::Slot last_slot = 0;
};

/// Bits 0..j of a word.
constexpr std::uint64_t through(std::size_t j) {
  return j == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (j + 1)) - 1;
}

/// The word-matrix tile core.  Resolves slots [from, end) over `lanes`
/// channels, one tile of 64 * cur slots per round, cur ramping 1 -> W so
/// short runs never buy words they cannot use.  Tiles are aligned to
/// absolute 64-slot boundaries; slots below `from` carry no outcomes.
/// `rows` come ordered by start and join the matrix in that order, each
/// once its start falls inside a tile; a row holds the station's transmit
/// bits — zero before its start, from its cutoff on and while it is
/// silent — so each lane's (any, multi) pair is an OR reduction of its
/// rows.  Every row whose start block is at or before the tile base comes
/// from one schedule_tile call.
///
/// On each solo (on any lane) `on_solo(r, t)` decides what happens to the
/// winning row r: kHalt stops the run at t; any other value becomes the
/// row's next start — kNever zeroes the row (the full-resolution drain),
/// a later slot refetches it (the dynamic head-of-line refill) — and the
/// rest of the tile is re-reduced and re-folded without the old row.  A
/// solo has exactly one set bit on its lane (noise and jam only add to
/// `multi`), so the winner does not depend on row order.  `transmits`
/// (nullable, one per row) gains each row's transmit slots, counted from
/// the words already fetched.
template <class OnSolo>
TileTotals resolve_tiles(const proto::ObliviousSchedule& schedule, std::vector<TileRow>& rows,
                         std::uint32_t lanes, mac::Slot from, mac::Slot end,
                         const ImpairmentPlan* plan, std::uint64_t* transmits, TileTotals totals,
                         OnSolo&& on_solo) {
  if (plan != nullptr && plan->clean()) plan = nullptr;
  const std::size_t W = tile_words();
  const simd::Kernels& kernels = simd::active();

  std::vector<std::uint64_t> matrix;  // station-major: row r = W words of rows[r]
  matrix.reserve(rows.size() * W);
  std::vector<proto::ObliviousSchedule::TileStation> tile_stations;
  std::vector<std::size_t> tile_rows;  // rows[] index of each tile station
  tile_stations.reserve(rows.size());
  tile_rows.reserve(rows.size());
  // Lane-major reduction rows: lane c holds words [c * W, c * W + W) of
  // `any` and of `multi`.
  std::vector<std::uint64_t> reduction(2 * lanes * W);
  std::uint64_t* const any = reduction.data();
  std::uint64_t* const multi = any + lanes * W;
  std::array<std::uint64_t, kMaxTileWords> pend{};
  std::array<std::uint64_t, kMaxTileWords> solo{};
  std::size_t live = 0;
  std::uint64_t obs_tiles = 0;
  std::uint64_t obs_words = 0;

  mac::Slot tb = 0;
  mac::Slot tile_end = 0;
  std::size_t tw = 0;

  // Zeroes the row's bits before its start and from its cutoff on.
  const auto mask_row = [&](const TileRow& row, std::uint64_t* words) {
    if (row.start > tb) {
      const auto off = static_cast<std::size_t>(row.start - tb);
      words[off / 64] &= ~std::uint64_t{0} << (off % 64);
    }
    if (row.cutoff < tile_end) {
      const auto off = static_cast<std::size_t>(row.cutoff - tb);
      std::size_t wc = off / 64;
      if (off % 64 != 0) words[wc++] &= (std::uint64_t{1} << (off % 64)) - 1;
      std::fill(words + wc, words + tw, 0);
    }
  };
  // Writes row r for this tile, fetching from the block holding its start
  // (never blocks wholly before it).  With `batch`, a row whose start
  // block is at or before tb joins the tile's schedule_tile call instead.
  const auto fetch = [&](std::size_t r, bool batch) {
    const TileRow& row = rows[r];
    std::uint64_t* words = matrix.data() + r * W;
    if (row.start >= tile_end || row.cutoff <= std::max(tb, row.start)) {
      std::fill(words, words + tw, 0);
      return;
    }
    const mac::Slot first = std::max(tb, row.start / 64 * 64);
    const auto w0 = static_cast<std::size_t>((first - tb) / 64);
    obs_words += tw - w0;
    if (batch && w0 == 0) {
      tile_stations.push_back({row.id, row.start, words});
      tile_rows.push_back(r);
      return;
    }
    std::fill(words, words + w0, 0);
    schedule.schedule_block(row.id, row.start, first, words + w0, tw - w0);
    mask_row(row, words);
  };
  // Rebuilds every lane's (any, multi) over words [w0, tw) and folds the
  // impairment words in: corrupt slots collide regardless of transmitters,
  // noisy slots garble an actual transmission into a collision.  Word w of
  // the tile is plan word tb / 64 + w.
  const auto reduce = [&](std::size_t w0) {
    for (std::uint32_t c = 0; c < lanes; ++c) {
      std::fill(any + c * W + w0, any + c * W + tw, 0);
      std::fill(multi + c * W + w0, multi + c * W + tw, 0);
    }
    for (std::size_t r = 0; r < live; ++r) {
      const std::size_t lane = rows[r].lane * W;
      kernels.or_accumulate(any + lane + w0, multi + lane + w0, matrix.data() + r * W + w0,
                            tw - w0);
    }
    if (plan == nullptr) return;
    const std::size_t gw = static_cast<std::size_t>(tb) / 64;
    for (std::uint32_t c = 0; c < lanes; ++c) {
      for (std::size_t w = w0; w < tw; ++w) {
        const std::uint64_t corrupt = plan->corrupt_word(gw + w);
        multi[c * W + w] |= (any[c * W + w] & plan->noise_word(gw + w)) | corrupt;
        any[c * W + w] |= corrupt;
      }
    }
  };
  const auto solo_word = [&](std::size_t w) {
    std::uint64_t bits = 0;
    for (std::uint32_t c = 0; c < lanes; ++c) bits |= any[c * W + w] & ~multi[c * W + w];
    return bits;
  };
  // Adds row r's transmit slots among the pending slots through tile bit
  // `last` (the pending masks exclude slots below `from`).
  const auto charge = [&](std::size_t r, std::size_t last) {
    const std::uint64_t* words = matrix.data() + r * W;
    const std::size_t lw = last / 64;
    auto count =
        static_cast<std::uint64_t>(std::popcount(words[lw] & pend[lw] & through(last % 64)));
    for (std::size_t w = 0; w < lw; ++w) {
      count += static_cast<std::uint64_t>(std::popcount(words[w] & pend[w]));
    }
    transmits[r] += count;
  };

  bool halted = false;
  // Rows the refetch rule put back in this tile: more than the tile has
  // words start the ramp over at one word.
  std::size_t refills = 0;
  std::size_t cur = 1;
  for (tb = from / 64 * 64; tb < end && !halted; tb += static_cast<mac::Slot>(64 * cur),
      cur = refills > tw ? 1 : std::min(cur * 2, W)) {
    refills = 0;
    tile_end = std::min<mac::Slot>(tb + static_cast<mac::Slot>(64 * cur), end);
    tw = static_cast<std::size_t>((tile_end - tb + 63) / 64);

    while (live < rows.size() && rows[live].start < tile_end) ++live;
    matrix.resize(live * W);
    tile_stations.clear();
    tile_rows.clear();
    for (std::size_t r = 0; r < live; ++r) fetch(r, true);
    schedule.schedule_tile(tile_stations, tb, tw);
    for (std::size_t i = 0; i < tile_rows.size(); ++i) {
      mask_row(rows[tile_rows[i]], tile_stations[i].out_words);
    }
    ++obs_tiles;
    reduce(0);

    // Pending masks: the slots of each word inside [max(tb, from), end).
    for (std::size_t w = 0; w < tw; ++w) {
      const mac::Slot ws = tb + static_cast<mac::Slot>(64 * w);
      const auto width = static_cast<std::size_t>(std::min<mac::Slot>(tile_end - ws, 64));
      pend[w] = through(width - 1);
      if (from > ws) pend[w] &= ~std::uint64_t{0} << (from - ws);
    }

    // Words before the first solo word (the whole tile when there is none)
    // resolve with one kernel call per lane.
    for (std::size_t w = 0; w < tw; ++w) solo[w] = solo_word(w) & pend[w];
    const std::size_t hit = simd::first_set_below(solo.data(), tw, 64 * tw);
    const std::size_t first_w = hit == simd::kNoBit ? tw : hit / 64;
    if (first_w > 0) {
      for (std::uint32_t c = 0; c < lanes; ++c) {
        kernels.masked_popcount_pair(any + c * W, multi + c * W, pend.data(), first_w,
                                     &totals.silences, &totals.collisions);
      }
    }

    // The tile bit of the slot the run stopped at, if it stopped here.
    std::size_t last_bit = 64 * tw - 1;
    for (std::size_t w = first_w; w < tw && !halted; ++w) {
      std::uint64_t pending = pend[w];
      while (pending != 0) {
        // Count outcomes up to and including the next solo slot (the rest
        // of the word when there is none), exactly like the interpreter.
        const std::uint64_t solos = solo_word(w) & pending;
        const std::size_t j = solos == 0 ? 63 : static_cast<std::size_t>(std::countr_zero(solos));
        const std::uint64_t segment = pending & through(j);
        pending &= ~segment;
        for (std::uint32_t c = 0; c < lanes; ++c) {
          const std::uint64_t a = any[c * W + w];
          const std::uint64_t m = multi[c * W + w];
          totals.silences += static_cast<std::uint64_t>(std::popcount(~a & segment));
          totals.collisions += static_cast<std::uint64_t>(std::popcount(m & segment));
          totals.successes += static_cast<std::uint64_t>(std::popcount(a & ~m & segment));
        }
        if (solos == 0) break;

        // Each lane's solo, lowest lane first, goes to the caller's rule.
        const mac::Slot t = tb + static_cast<mac::Slot>(64 * w + j);
        for (std::uint32_t c = 0; c < lanes && !halted; ++c) {
          if ((((any[c * W + w] & ~multi[c * W + w]) >> j) & 1) == 0) continue;
          std::size_t r = 0;
          while (rows[r].lane != c || ((matrix[r * W + w] >> j) & 1) == 0) ++r;
          const mac::Slot next = on_solo(r, t);
          if (next == kHalt) {
            halted = true;
            last_bit = 64 * w + j;
            totals.last_slot = t;
            break;
          }
          if (transmits != nullptr) charge(r, 64 * w + j);
          rows[r].start = next;
          if (next != kNever) ++refills;
          fetch(r, false);
        }
        if (halted) break;
        reduce(w);
      }
    }

    // Every row still on the channel transmitted its row up to the slot the
    // run stopped at (the whole tile when it goes on).
    if (transmits != nullptr) {
      for (std::size_t r = 0; r < live; ++r) charge(r, last_bit);
    }
  }
  if (!halted) totals.last_slot = end - 1;

  if (obs::active()) {
    static const auto c_tiles = obs::Counter::get("batch.tiles");
    static const auto c_words = obs::Counter::get("batch.words_fetched");
    c_tiles.add(obs_tiles);
    c_words.add(obs_words);
  }
  return totals;
}

/// Static wake-up from slot `start` (>= s).  `carry` (nullable) holds the
/// outcome counters and per-station transmits of a warm-up prefix
/// [s, start) run elsewhere.  A solo halts the run, or under full
/// resolution removes its winner from the channel until every station has
/// left.
SimResult run_static(const proto::ObliviousSchedule& schedule, const mac::WakePattern& pattern,
                     const SimConfig& config, mac::Slot start, const SimResult* carry) {
  SimResult result;
  if (pattern.empty()) return result;
  const auto& arrivals = pattern.arrivals();  // sorted by wake
  const mac::Slot s = pattern.first_wake();
  result.s = s;
  mac::Slot budget = config.max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());

  std::vector<TileRow> rows;
  rows.reserve(arrivals.size());
  for (const mac::Arrival& a : arrivals) rows.push_back({a.station, a.wake});
  TileTotals totals;
  if (carry != nullptr) {
    totals = {carry->silences, carry->collisions, carry->successes};
  }
  // Energy bookkeeping (side-state only): per-station transmits and
  // full-resolution departure slots.
  const bool energy = config.energy != EnergyModel::kOff;
  std::vector<mac::Slot> depart;
  if (energy) {
    result.station_transmits =
        carry != nullptr ? carry->station_transmits : std::vector<std::uint64_t>(rows.size(), 0);
    depart.assign(rows.size(), -1);
  }

  std::size_t remaining = rows.size();
  totals = resolve_tiles(
      schedule, rows, 1, start, s + budget, config.impairment,
      energy ? result.station_transmits.data() : nullptr, totals,
      [&](std::size_t r, mac::Slot t) -> mac::Slot {
        if (!result.success) {
          result.success = true;
          result.success_slot = t;
          result.rounds = t - s;
          result.winner = rows[r].id;
        }
        if (!config.full_resolution) return kHalt;
        // Full resolution: the winner leaves the channel.
        if (energy) depart[r] = t;
        if (--remaining > 0) return kNever;
        result.completed = true;
        result.completion_slot = t;
        result.completion_rounds = t - s;
        return kHalt;
      });

  result.silences = totals.silences;
  result.collisions = totals.collisions;
  result.successes = totals.successes;
  if (energy) {
    // The awake span is arithmetic: a departed station stops transmitting
    // at its departure, and whether it keeps listening afterwards is the
    // model.  Stations waking after the last slot examined hold 0.
    const mac::Slot last_slot = totals.last_slot;
    result.station_energy.assign(arrivals.size(), 0);
    for (std::size_t i = 0; i < arrivals.size() && arrivals[i].wake <= last_slot; ++i) {
      const mac::Slot span_end = depart[i] >= 0 && config.energy == EnergyModel::kListenUntilWoken
                                     ? depart[i]
                                     : last_slot;
      result.station_energy[i] = static_cast<std::uint64_t>(span_end - arrivals[i].wake + 1);
    }
  }
  return result;
}

}  // namespace

SimResult run_wakeup_batch(const proto::Protocol& protocol, const mac::WakePattern& pattern,
                           const SimConfig& config) {
  if (!batch_engine_supports(protocol, config)) {
    throw std::invalid_argument("batch engine requires an oblivious protocol and no trace");
  }
  return run_static(*protocol.oblivious_schedule(), pattern, config, pattern.first_wake(),
                    nullptr);
}

mac::Slot hybrid_warmup_slots(const proto::ObliviousSchedule& schedule,
                              const mac::WakePattern& pattern, const SimConfig& config) {
  // Cheap-word schedules (strided bits) batch profitably from slot one.
  // Hashed words are cheap too next to the interpreter's per-station,
  // per-slot virtual calls, but the paper's near-optimal protocols often
  // resolve within a few slots, where a word per station is mostly waste —
  // so few stations get a short interpreted prefix and many get none.
  // Full resolution drains successes across many tiles anyway; the warm-up
  // bookkeeping (departed winners) is not worth carrying over.
  if (schedule.words_are_cheap() || config.full_resolution || pattern.empty()) return 0;
  return std::min<mac::Slot>(64, kWarmupStationSlots / static_cast<mac::Slot>(pattern.k()));
}

SimResult run_wakeup_hybrid(const proto::Protocol& protocol, const mac::WakePattern& pattern,
                            const SimConfig& config) {
  if (!batch_engine_supports(protocol, config)) {
    throw std::invalid_argument("batch engine requires an oblivious protocol and no trace");
  }
  if (pattern.empty()) return {};
  const proto::ObliviousSchedule& schedule = *protocol.oblivious_schedule();
  const mac::Slot warmup = hybrid_warmup_slots(schedule, pattern, config);
  if (warmup == 0) return run_static(schedule, pattern, config, pattern.first_wake(), nullptr);

  mac::Slot budget = config.max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());
  SimConfig warm_config = config;
  warm_config.max_slots = std::min<mac::Slot>(warmup, budget);
  const SimResult warm = run_wakeup_interpreter(protocol, pattern, warm_config);
  if (warm.success || budget <= warmup) return warm;

  // No success in the warm-up: continue word-parallel with carried counters.
  SimConfig rest_config = config;
  rest_config.max_slots = budget;  // pin the budget the warm-up was cut from
  return run_static(schedule, pattern, rest_config, pattern.first_wake() + warmup, &warm);
}

McSimResult run_mc_batch(const proto::McProtocol& protocol, const mac::WakePattern& pattern,
                         mac::Slot max_slots, const ImpairmentPlan* plan) {
  if (!mc_batch_supports(protocol)) {
    throw std::invalid_argument(
        "mc batch engine requires an oblivious schedule spanning all channels");
  }
  McSimResult result;
  if (pattern.empty()) return result;
  const proto::ObliviousSchedule& schedule = *protocol.oblivious_schedule();
  const std::uint32_t channels = protocol.channels();
  std::vector<TileRow> rows;
  rows.reserve(pattern.k());
  for (const mac::Arrival& a : pattern.arrivals()) {
    const std::uint32_t lane = schedule.channel_lane(a.station, a.wake);
    if (lane >= channels) {
      throw std::invalid_argument("mc batch engine: channel_lane out of range");
    }
    rows.push_back({a.station, a.wake, kNever, lane});
  }
  const mac::Slot s = pattern.first_wake();
  result.s = s;
  mac::Slot budget = max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());

  // The first solo slot over all lanes ends the run; its lowest solo lane
  // is the success channel.
  const TileTotals totals =
      resolve_tiles(schedule, rows, channels, s, s + budget, plan, nullptr, {},
                    [&](std::size_t r, mac::Slot t) -> mac::Slot {
                      result.success = true;
                      result.success_slot = t;
                      result.rounds = t - s;
                      result.success_channel = static_cast<std::int32_t>(rows[r].lane);
                      result.winner = rows[r].id;
                      return kHalt;
                    });
  result.silences = totals.silences;
  result.collisions = totals.collisions;
  result.successes = totals.successes;
  return result;
}

DynamicResult run_dynamic_batch(const proto::Protocol& protocol,
                                const mac::DynamicScenario& scenario, const ImpairmentPlan* plan,
                                EnergyModel energy) {
  if (!dynamic_batch_supports(protocol)) {
    throw std::invalid_argument(
        "dynamic batch engine requires a single-channel oblivious protocol");
  }

  DynamicResult result;
  result.horizon = scenario.horizon();
  result.arrivals = scenario.packets_total();
  result.stations = scenario.stations();
  result.delivered_per_station.assign(result.stations.size(), 0);
  const std::size_t m = result.stations.size();

  // Each station gets a row from its first arrival; rows join the matrix
  // ordered by start, ties by station id.  A row contends from its
  // head-of-line packet's start, max(arrival, previous delivery + 1), and a
  // crashed station's row falls silent at its cutoff.  A byzantine station
  // never follows the protocol (its interference is pre-folded into the
  // plan's corrupt words), so it gets no row and its packets strand in the
  // backlog.
  std::vector<std::size_t> station;  // rows[r] serves result.stations[station[r]]
  for (std::size_t i = 0; i < m; ++i) {
    if (plan == nullptr || !plan->is_byzantine(result.stations[i])) station.push_back(i);
  }
  const auto first = [&](std::size_t i) { return scenario.arrivals_of(i).front(); };
  std::stable_sort(station.begin(), station.end(),
                   [&](std::size_t a, std::size_t b) { return first(a) < first(b); });
  std::vector<TileRow> rows;
  rows.reserve(station.size());
  for (const std::size_t i : station) {
    const mac::Slot cutoff = plan != nullptr ? plan->crash_cutoff(result.stations[i]) : -1;
    rows.push_back({result.stations[i], first(i), cutoff >= 0 ? cutoff : kNever});
  }
  std::vector<std::size_t> head(rows.size(), 0);  // delivered packets, per row
  std::vector<std::uint64_t> transmits;
  if (energy != EnergyModel::kOff) {
    result.station_energy.assign(m, 0);
    result.station_transmits.assign(m, 0);
    transmits.assign(rows.size(), 0);
  }

  const mac::Slot horizon = scenario.horizon();
  const TileTotals totals = resolve_tiles(
      *protocol.oblivious_schedule(), rows, 1, 0, horizon, plan,
      energy != EnergyModel::kOff ? transmits.data() : nullptr, {},
      [&](std::size_t r, mac::Slot t) -> mac::Slot {
        const std::span<const mac::Slot> queue = scenario.arrivals_of(station[r]);
        result.latency.push_back(static_cast<double>(t - queue[head[r]] + 1));
        ++result.delivered_per_station[station[r]];
        ++head[r];
        // The delivered packet paid every slot from its start through t.
        if (energy == EnergyModel::kListenUntilWoken) {
          result.station_energy[station[r]] += static_cast<std::uint64_t>(t - rows[r].start + 1);
        }
        // The next queued packet re-contends from t + 1, a later arrival
        // from its slot; a drained queue leaves the row silent for good.
        return head[r] < queue.size() ? std::max(queue[head[r]], t + 1) : kNever;
      });

  if (energy != EnergyModel::kOff) {
    // Listen components, closed arithmetically.  listen:all — every live
    // receiver is on for the whole horizon (capped at a crash cutoff;
    // byzantine stations pay 0).  listen:until_woken — delivered packets
    // already paid their spans above; a still-backlogged head packet pays
    // from its start to the horizon (or cutoff).
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::size_t i = station[r];
      result.station_transmits[i] = transmits[r];
      const mac::Slot end_eff = std::min(horizon, rows[r].cutoff);
      if (energy == EnergyModel::kListenAll) {
        result.station_energy[i] = static_cast<std::uint64_t>(end_eff);
      } else if (rows[r].start < end_eff) {
        result.station_energy[i] += static_cast<std::uint64_t>(end_eff - rows[r].start);
      }
    }
  }

  result.silences = totals.silences;
  result.collisions = totals.collisions;
  result.delivered = static_cast<std::uint64_t>(result.latency.size());
  result.backlog = result.arrivals - result.delivered;
  return result;
}

}  // namespace wakeup::sim
