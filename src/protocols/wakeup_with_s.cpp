#include "protocols/wakeup_with_s.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "util/math.hpp"

namespace wakeup::proto {
namespace {

class WakeupWithSRuntime final : public StationRuntime {
 public:
  WakeupWithSRuntime(StationId u, Slot wake, Slot s, std::uint32_t n,
                     comb::DoublingSchedulePtr schedule)
      : u_(u), participates_satf_(wake == s), s_(s), n_(n), schedule_(std::move(schedule)) {}

  [[nodiscard]] bool transmits(Slot t) override {
    const Slot d = t - s_;
    if (d < 0) return false;
    if (d % 2 == 0) {
      // Round-robin half: every awake station takes its TDM turn.
      const Slot v = d / 2;
      return static_cast<std::uint32_t>(v % static_cast<Slot>(n_)) == u_;
    }
    // select_among_the_first half: only stations woken exactly at s.
    if (!participates_satf_) return false;
    const Slot v = (d - 1) / 2;
    return schedule_->transmits(u_, static_cast<std::uint64_t>(v));
  }

 private:
  StationId u_;
  bool participates_satf_;
  Slot s_;
  std::uint32_t n_;
  comb::DoublingSchedulePtr schedule_;
};

}  // namespace

std::unique_ptr<StationRuntime> WakeupWithSProtocol::make_runtime(StationId u, Slot wake) const {
  return std::make_unique<WakeupWithSRuntime>(u, wake, s_, schedule_->config().n, schedule_);
}

void WakeupWithSProtocol::schedule_block(StationId u, Slot wake, Slot from,
                                         std::uint64_t* out_words, std::size_t n_words) const {
  const TileStation station{u, wake, out_words};
  schedule_tile({&station, 1}, from, n_words);
}

void WakeupWithSProtocol::schedule_tile(std::span<const TileStation> stations, Slot from,
                                        std::size_t n_words) const {
  const auto n = static_cast<Slot>(schedule_->config().n);
  // Even offsets d = 2v run round-robin at virtual slot v, odd offsets
  // d = 2v + 1 run SATF at v.  Word w's 32 odd offsets are virtual slots
  // vo + 32w .., its 32 even ones ve + 32w .., and they interleave by the
  // parity of d0 = from − s (the same for every word).
  const Slot d0 = from - s_;
  const Slot parity = d0 & 1;
  const Slot vo = (d0 - parity) / 2;
  const Slot ve = vo + parity;
  std::array<StationId, kTileChunk> live;
  std::array<std::size_t, kTileChunk> live_at;
  std::array<std::uint64_t, kTileChunk> words;
  std::array<std::uint64_t, kTileChunk> satf;  // per station: its virtual SATF word
  // Round-robin half: station u takes its TDM turn at the virtual slots
  // v >= 0 with v mod n == u; per station, its next turn at or after the
  // current word (out-of-universe stations never get one).
  std::array<Slot, kTileChunk> next_turn;
  const Slot first_turn = std::max<Slot>(ve, 0);
  for (std::size_t c0 = 0; c0 < stations.size(); c0 += kTileChunk) {
    const auto chunk = stations.subspan(c0, std::min(kTileChunk, stations.size() - c0));
    std::size_t n_live = 0;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const auto u = static_cast<Slot>(chunk[i].u);
      next_turn[i] = u < n ? first_turn + ((u - first_turn) % n + n) % n
                           : std::numeric_limits<Slot>::max();
      if (chunk[i].wake != s_) continue;  // SATF: only stations woken exactly at s
      live[n_live] = chunk[i].u;
      live_at[n_live++] = i;
    }
    for (std::size_t w = 0; w < n_words; ++w) {
      if (w % 2 == 0) {
        // Negative offsets are negative virtual slots, which the window
        // keeps silent.
        std::fill(satf.begin(), satf.begin() + static_cast<std::ptrdiff_t>(chunk.size()), 0);
        if (n_live > 0) {
          schedule_->window(vo + static_cast<Slot>(32 * w)).words(live.data(), n_live,
                                                                  words.data());
          for (std::size_t l = 0; l < n_live; ++l) satf[live_at[l]] = words[l];
        }
      }
      const Slot v_rr = ve + static_cast<Slot>(32 * w);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        std::uint64_t rr_bits = 0;
        for (; next_turn[i] < v_rr + 32; next_turn[i] += n) {
          rr_bits |= std::uint64_t{1} << (next_turn[i] - v_rr);
        }
        const std::uint64_t rr = util::spread_even_bits32(rr_bits);
        const std::uint64_t sa = util::spread_even_bits32(satf[i] >> (32 * (w % 2)));
        chunk[i].out_words[w] = parity == 0 ? (rr | (sa << 1)) : (sa | (rr << 1));
      }
    }
  }
}

ProtocolPtr make_wakeup_with_s(std::uint32_t n, Slot s, comb::FamilyKind kind,
                               std::uint64_t seed, double family_c) {
  comb::DoublingSchedule::Config config;
  config.n = n;
  config.k_max = n;  // s is known but k is not: the ladder must reach any k
  // The round-robin half guarantees success within 2n slots of the first
  // wake (designated stations never collide there), and the SATF half runs
  // set v at slot s + 2v + 1 — so sets at index >= n can never execute
  // before success.  Truncate the concatenation at a prefix of n sets
  // instead of materializing families up to k = n: same outcomes, and the
  // schedule stays affordable at the n = 2^20 frontier.
  config.prefix_cap = n;
  config.kind = kind;
  config.seed = seed;
  config.c = family_c;
  return std::make_shared<WakeupWithSProtocol>(s, comb::make_doubling_schedule(config));
}

}  // namespace wakeup::proto
