#include "sim/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/impairment_engine.hpp"
#include "sim/interpreter.hpp"
#include "util/simd.hpp"

namespace wakeup::sim {

namespace {

std::size_t clamp_tile(std::size_t words) {
  return std::clamp<std::size_t>(words, 1, kMaxTileWords);
}

std::size_t env_tile_words() {
  const char* env = std::getenv("WAKEUP_TILE_WORDS");
  if (env == nullptr || env[0] == '\0') return kMaxTileWords;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(env, &end, 10);
  // Unparsable or zero values fall back to the default rather than
  // silently pinning the slowest width.
  if (end == env || *end != '\0' || parsed == 0) return kMaxTileWords;
  return clamp_tile(static_cast<std::size_t>(parsed));
}

std::atomic<std::size_t>& tile_override() noexcept {
  static std::atomic<std::size_t> value{0};
  return value;
}

}  // namespace

std::size_t tile_words() noexcept {
  const std::size_t forced = tile_override().load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const std::size_t from_env = env_tile_words();
  return from_env;
}

void set_tile_words(std::size_t words) noexcept {
  tile_override().store(words == 0 ? 0 : clamp_tile(words), std::memory_order_relaxed);
}

bool batch_engine_supports(const proto::Protocol& protocol, const SimConfig& config) {
  return protocol.oblivious_schedule() != nullptr && !config.record_trace;
}

namespace {

namespace simd = util::simd;

/// Transmit slots of one matrix row among the tile's pending slots, up to
/// and including tile bit `last` (word last / 64, bit last % 64).  Rows are
/// zero before their station's wake and pending words before the run's
/// start, so this is the row's share of the station's [wake, tx_end].
std::uint64_t row_transmits(const std::uint64_t* row, const std::uint64_t* pend,
                            std::size_t last) {
  const std::size_t lw = last / 64;
  std::uint64_t count = 0;
  for (std::size_t w = 0; w < lw; ++w) {
    count += static_cast<std::uint64_t>(std::popcount(row[w] & pend[w]));
  }
  const std::size_t j = last % 64;
  const std::uint64_t upto = j == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (j + 1)) - 1;
  return count + static_cast<std::uint64_t>(std::popcount(row[lw] & pend[lw] & upto));
}

/// Tile-wise core.  `start` is the first slot to resolve (>= s; arrivals
/// before it join immediately) and `carry` holds outcome counters and
/// per-station transmits already accumulated by a warm-up prefix
/// [s, start) run elsewhere.  Tiles are aligned to absolute 64-slot
/// boundaries (slots below `start` are masked out of the pending words).
/// Each round fills one station-major matrix row of W words per live
/// station and resolves all 64 * W slots against it.
SimResult run_batch_from(const proto::ObliviousSchedule& schedule,
                         const mac::WakePattern& pattern, const SimConfig& config,
                         mac::Slot start, const SimResult* carry) {
  SimResult result;
  if (pattern.empty()) return result;

  struct Active {
    mac::StationId id;
    mac::Slot wake;
    std::size_t arrival;  ///< index in pattern.arrivals()
    bool done = false;    ///< full-resolution: already delivered
  };

  const auto& arrivals = pattern.arrivals();  // sorted by wake
  const mac::Slot s = pattern.first_wake();
  result.s = s;

  mac::Slot budget = config.max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());
  const mac::Slot end = s + budget;  // exclusive

  const std::size_t W = tile_words();

  // Impairment fold: tiles are 64-aligned to absolute slots, so word w of a
  // tile starting at tb is plan word tb/64 + w.  One OR-AND per word:
  // corrupt slots collide regardless of transmitters, noisy slots garble an
  // actual transmission into a collision.
  const ImpairmentPlan* plan = config.impairment;
  if (plan != nullptr && plan->clean()) plan = nullptr;
  const auto fold_impairment = [plan](std::uint64_t* any_w, std::uint64_t* multi_w,
                                      mac::Slot tb, std::size_t from_w, std::size_t tw) {
    const std::size_t gw = static_cast<std::size_t>(tb) / 64;
    for (std::size_t w = from_w; w < tw; ++w) {
      const std::uint64_t corrupt = plan->corrupt_word(gw + w);
      multi_w[w] |= (any_w[w] & plan->noise_word(gw + w)) | corrupt;
      any_w[w] |= corrupt;
    }
  };

  std::vector<Active> active;
  active.reserve(pattern.k());
  std::vector<std::uint64_t> matrix;  // station-major: row r = W words of active[r]
  matrix.reserve(pattern.k() * W);
  std::vector<proto::ObliviousSchedule::TileStation> tile_stations;
  tile_stations.reserve(pattern.k());
  std::array<std::uint64_t, kMaxTileWords> any{};
  std::array<std::uint64_t, kMaxTileWords> multi{};
  std::array<std::uint64_t, kMaxTileWords> pend{};
  std::array<std::uint64_t, kMaxTileWords> succ{};

  std::size_t next_arrival = 0;
  std::size_t remaining = pattern.k();
  std::uint64_t silences = carry != nullptr ? carry->silences : 0;
  std::uint64_t collisions = carry != nullptr ? carry->collisions : 0;
  std::uint64_t successes = carry != nullptr ? carry->successes : 0;
  bool halted = false;
  // Energy bookkeeping (side-state only): each station's transmits, counted
  // from the rows the tile loop fetches anyway, its full-resolution
  // departure slot, and the last slot examined.
  const bool energy = config.energy != EnergyModel::kOff;
  std::vector<std::uint64_t>& transmits = result.station_transmits;
  std::vector<mac::Slot> depart;
  if (energy) {
    if (carry != nullptr) {
      transmits = carry->station_transmits;
    } else {
      transmits.assign(arrivals.size(), 0);
    }
    depart.assign(arrivals.size(), -1);
  }
  mac::Slot last_slot = end - 1;
  // Observability (side-state only): flushed once after the loop.
  std::uint64_t obs_tiles = 0;
  std::uint64_t obs_words = 0;

  // First block boundary at or below `start` (wakes are validated >= 0,
  // so start >= 0 and plain division floors).
  const mac::Slot first_block = start / 64 * 64;

  // Tile ramp: the first resolve round fetches one word per station (runs
  // that end inside it pay exactly the pre-tiling cost), doubling up to W
  // per round — long runs amortize the fetch W-fold, short runs never buy
  // words they cannot use.  Tiles stay 64-aligned throughout, and results
  // are bit-identical for every ramp state (tiles are just groupings of
  // the same masked words).
  std::size_t cur = 1;

  for (mac::Slot tb = first_block; tb < end && !halted;
       tb += static_cast<mac::Slot>(64 * cur), cur = std::min<std::size_t>(cur * 2, W)) {
    const mac::Slot tile_end =
        std::min<mac::Slot>(tb + static_cast<mac::Slot>(64 * cur), end);
    const auto tw = static_cast<std::size_t>((tile_end - tb + 63) / 64);

    // Admit every station that wakes inside this tile; row bits before the
    // wake slot are masked off below.
    const std::size_t first_new = active.size();
    while (next_arrival < arrivals.size() && arrivals[next_arrival].wake < tile_end) {
      const auto& a = arrivals[next_arrival];
      active.push_back(Active{a.station, a.wake, next_arrival});
      matrix.resize(active.size() * W, 0);
      ++next_arrival;
    }

    // One schedule_tile call for every live station whose words start at
    // tb; a station waking past the tile's first word fetches from the
    // block containing its wake (never blocks wholly before it) and
    // zero-fills the words before.
    tile_stations.clear();
    for (std::size_t r = 0; r < active.size(); ++r) {
      const Active& st = active[r];
      std::uint64_t* row = matrix.data() + r * W;
      if (st.done) {
        std::fill(row, row + tw, 0);
        continue;
      }
      const mac::Slot from = std::max(tb, st.wake / 64 * 64);
      const auto w0 = static_cast<std::size_t>((from - tb) / 64);
      if (w0 == 0) {
        tile_stations.push_back({st.id, st.wake, row});
      } else {
        std::fill(row, row + w0, 0);
        schedule.schedule_block(st.id, st.wake, from, row + w0, tw - w0);
      }
      obs_words += tw - w0;
    }
    schedule.schedule_tile(tile_stations, tb, tw);
    for (std::size_t r = first_new; r < active.size(); ++r) {
      const mac::Slot from = std::max(tb, active[r].wake / 64 * 64);
      if (active[r].wake > from) {
        matrix[r * W + static_cast<std::size_t>((from - tb) / 64)] &=
            ~std::uint64_t{0} << (active[r].wake - from);
      }
    }
    ++obs_tiles;

    simd::or_reduce_2pass(matrix.data(), active.size(), W, tw, any.data(), multi.data());
    if (plan != nullptr) fold_impairment(any.data(), multi.data(), tb, 0, tw);

    // Pending masks: the slots of each word inside [max(tb, start), end).
    for (std::size_t w = 0; w < tw; ++w) {
      const mac::Slot ws = tb + static_cast<mac::Slot>(64 * w);
      const auto width = static_cast<unsigned>(std::min<mac::Slot>(tile_end - ws, 64));
      std::uint64_t m = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
      // Slots below `start` belong to the warm-up prefix (or precede s);
      // they carry no outcomes here.
      if (start > ws) m &= ~std::uint64_t{0} << (start - ws);
      pend[w] = m;
    }

    // The tile bit of the slot the run stopped at, if it stopped here.
    std::size_t last_bit = 64 * tw - 1;

    // Fast path: no solo success anywhere in the tile — count the whole
    // tile's silences and collisions with one kernel call.
    for (std::size_t w = 0; w < tw; ++w) succ[w] = any[w] & ~multi[w] & pend[w];
    const std::size_t hit = simd::first_set_below(succ.data(), tw, 64 * tw);
    if (hit == simd::kNoBit) {
      simd::active().masked_popcount_pair(any.data(), multi.data(), pend.data(), tw,
                                          &silences, &collisions);
    } else if (hit / 64 > 0) {
      // Words before the first success word are fully resolved too.
      simd::active().masked_popcount_pair(any.data(), multi.data(), pend.data(), hit / 64,
                                          &silences, &collisions);
    }

    for (std::size_t w = hit == simd::kNoBit ? tw : hit / 64; w < tw && !halted; ++w) {
      std::uint64_t pending = pend[w];
      while (pending != 0) {
        const std::uint64_t solo = any[w] & ~multi[w] & pending;
        if (solo == 0) {
          silences += static_cast<std::uint64_t>(std::popcount(~any[w] & pending));
          collisions += static_cast<std::uint64_t>(std::popcount(multi[w] & pending));
          break;
        }
        // Count outcomes up to and including the first success slot,
        // exactly like the interpreter which stops right after it.
        const auto j = static_cast<unsigned>(std::countr_zero(solo));
        const std::uint64_t upto =
            j == 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << (j + 1)) - 1;
        const std::uint64_t segment = pending & upto;
        silences += static_cast<std::uint64_t>(std::popcount(~any[w] & segment));
        collisions += static_cast<std::uint64_t>(std::popcount(multi[w] & segment));
        ++successes;
        pending &= ~upto;

        const mac::Slot t = tb + static_cast<mac::Slot>(64 * w + j);
        mac::StationId winner = 0;
        for (std::size_t r = 0; r < active.size(); ++r) {
          if (!active[r].done && ((matrix[r * W + w] >> j) & 1u) != 0) {
            winner = active[r].id;
            break;
          }
        }
        if (!result.success) {
          result.success = true;
          result.success_slot = t;
          result.rounds = t - s;
          result.winner = winner;
        }
        if (!config.full_resolution) {
          halted = true;
          last_slot = t;
          last_bit = 64 * w + j;
          break;
        }

        // Full resolution: the winner leaves the channel — its transmits
        // end here; zero its row and re-resolve the remaining columns of
        // the tile without it.
        for (std::size_t r = 0; r < active.size(); ++r) {
          if (active[r].id != winner || active[r].done) continue;
          active[r].done = true;
          if (energy) {
            depart[active[r].arrival] = t;
            transmits[active[r].arrival] +=
                row_transmits(matrix.data() + r * W, pend.data(), 64 * w + j);
          }
          std::fill(matrix.begin() + static_cast<std::ptrdiff_t>(r * W + w),
                    matrix.begin() + static_cast<std::ptrdiff_t>(r * W + tw), 0);
        }
        --remaining;
        if (remaining == 0 && next_arrival == arrivals.size()) {
          result.completed = true;
          result.completion_slot = t;
          result.completion_rounds = t - s;
          halted = true;
          last_slot = t;
          last_bit = 64 * w + j;
          break;
        }
        simd::or_reduce_2pass(matrix.data() + w, active.size(), W, tw - w, any.data() + w,
                              multi.data() + w);
        if (plan != nullptr) fold_impairment(any.data(), multi.data(), tb, w, tw);
      }
    }

    // Every station still on the channel transmitted this tile's row up to
    // the slot the run stopped at (the whole tile when it goes on).
    if (energy) {
      for (std::size_t r = 0; r < active.size(); ++r) {
        if (active[r].done) continue;
        transmits[active[r].arrival] +=
            row_transmits(matrix.data() + r * W, pend.data(), last_bit);
      }
    }
  }

  result.silences = silences;
  result.collisions = collisions;
  result.successes = successes;
  if (energy) {
    // The awake span is arithmetic: a departed station stops transmitting
    // at its departure, and whether it keeps listening afterwards is the
    // model.  Stations waking after the last slot examined hold 0.
    result.station_energy.assign(arrivals.size(), 0);
    for (std::size_t i = 0; i < arrivals.size() && arrivals[i].wake <= last_slot; ++i) {
      const mac::Slot span_end = depart[i] >= 0 && config.energy == EnergyModel::kListenUntilWoken
                                     ? depart[i]
                                     : last_slot;
      result.station_energy[i] = static_cast<std::uint64_t>(span_end - arrivals[i].wake + 1);
    }
  }
  if (obs::active()) {
    static const auto c_tiles = obs::Counter::get("batch.tiles");
    static const auto c_words = obs::Counter::get("batch.words_fetched");
    c_tiles.add(obs_tiles);
    c_words.add(obs_words);
  }
  return result;
}

}  // namespace

SimResult run_wakeup_batch(const proto::Protocol& protocol, const mac::WakePattern& pattern,
                           const SimConfig& config) {
  if (!batch_engine_supports(protocol, config)) {
    throw std::invalid_argument("batch engine requires an oblivious protocol and no trace");
  }
  return run_batch_from(*protocol.oblivious_schedule(), pattern, config, pattern.first_wake(),
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
  if (warmup == 0) {
    return run_batch_from(schedule, pattern, config, pattern.first_wake(), nullptr);
  }

  mac::Slot budget = config.max_slots;
  if (budget <= 0) budget = auto_slot_budget(pattern.n(), pattern.k());
  SimConfig warm_config = config;
  warm_config.max_slots = std::min<mac::Slot>(warmup, budget);
  const SimResult warm = run_wakeup_interpreter(protocol, pattern, warm_config);
  if (warm.success || budget <= warmup) return warm;

  // No success in the warm-up: continue word-parallel with carried counters.
  SimConfig rest_config = config;
  rest_config.max_slots = budget;  // pin the budget the warm-up was cut from
  return run_batch_from(schedule, pattern, rest_config, pattern.first_wake() + warmup, &warm);
}

}  // namespace wakeup::sim
