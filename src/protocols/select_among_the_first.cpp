#include "protocols/select_among_the_first.hpp"

#include <algorithm>
#include <array>

namespace wakeup::proto {
namespace {

class SatfRuntime final : public StationRuntime {
 public:
  SatfRuntime(StationId u, bool participates, Slot s, comb::DoublingSchedulePtr schedule)
      : u_(u), participates_(participates), s_(s), schedule_(std::move(schedule)) {}

  [[nodiscard]] bool transmits(Slot t) override {
    if (!participates_ || t < s_) return false;
    return schedule_->transmits(u_, static_cast<std::uint64_t>(t - s_));
  }

 private:
  StationId u_;
  bool participates_;
  Slot s_;
  comb::DoublingSchedulePtr schedule_;
};

}  // namespace

std::unique_ptr<StationRuntime> SelectAmongTheFirstProtocol::make_runtime(StationId u,
                                                                          Slot wake) const {
  // A station can locally decide participation by comparing its wake time
  // with the known s.
  return std::make_unique<SatfRuntime>(u, wake == s_, s_, schedule_);
}

void SelectAmongTheFirstProtocol::schedule_block(StationId u, Slot wake, Slot from,
                                                 std::uint64_t* out_words,
                                                 std::size_t n_words) const {
  const TileStation station{u, wake, out_words};
  schedule_tile({&station, 1}, from, n_words);
}

void SelectAmongTheFirstProtocol::schedule_tile(std::span<const TileStation> stations,
                                                Slot from, std::size_t n_words) const {
  std::array<StationId, kTileChunk> live;
  std::array<std::size_t, kTileChunk> live_at;
  std::array<std::uint64_t, kTileChunk> words;
  for (std::size_t c0 = 0; c0 < stations.size(); c0 += kTileChunk) {
    const auto chunk = stations.subspan(c0, std::min(kTileChunk, stations.size() - c0));
    std::size_t n_live = 0;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (chunk[i].wake != s_) {  // non-participants stay silent forever
        std::fill(chunk[i].out_words, chunk[i].out_words + n_words, 0);
        continue;
      }
      live[n_live] = chunk[i].u;
      live_at[n_live++] = i;
    }
    if (n_live == 0) continue;
    for (std::size_t w = 0; w < n_words; ++w) {
      // Slots before s are negative indices, which the window keeps silent.
      schedule_->window(from + static_cast<Slot>(64 * w) - s_)
          .words(live.data(), n_live, words.data());
      for (std::size_t l = 0; l < n_live; ++l) chunk[live_at[l]].out_words[w] = words[l];
    }
  }
}

}  // namespace wakeup::proto
