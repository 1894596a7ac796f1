#include "protocols/wait_and_go.hpp"

#include <algorithm>
#include <array>

namespace wakeup::proto {
namespace {

class WaitAndGoRuntime final : public StationRuntime {
 public:
  WaitAndGoRuntime(StationId u, Slot wake, comb::DoublingSchedulePtr schedule)
      : u_(u), schedule_(std::move(schedule)) {
    const auto j = static_cast<std::uint64_t>(wake < 0 ? 0 : wake);
    go_ = schedule_->next_family_start(j);
  }

  [[nodiscard]] bool transmits(Slot t) override {
    const auto ut = static_cast<std::uint64_t>(t);
    if (t < 0 || ut < go_) return false;  // still waiting for a family boundary
    return schedule_->transmits(u_, ut);
  }

 private:
  StationId u_;
  comb::DoublingSchedulePtr schedule_;
  std::uint64_t go_ = 0;
};

}  // namespace

std::unique_ptr<StationRuntime> WaitAndGoProtocol::make_runtime(StationId u, Slot wake) const {
  return std::make_unique<WaitAndGoRuntime>(u, wake, schedule_);
}

void WaitAndGoProtocol::schedule_block(StationId u, Slot wake, Slot from,
                                       std::uint64_t* out_words, std::size_t n_words) const {
  const TileStation station{u, wake, out_words};
  schedule_tile({&station, 1}, from, n_words);
}

void WaitAndGoProtocol::schedule_tile(std::span<const TileStation> stations, Slot from,
                                      std::size_t n_words) const {
  std::array<Slot, kTileChunk> go;  // each station's first transmitting slot
  std::array<StationId, kTileChunk> live;
  std::array<std::size_t, kTileChunk> live_at;
  std::array<std::uint64_t, kTileChunk> words;
  for (std::size_t c0 = 0; c0 < stations.size(); c0 += kTileChunk) {
    const auto chunk = stations.subspan(c0, std::min(kTileChunk, stations.size() - c0));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const auto j0 = static_cast<std::uint64_t>(std::max<Slot>(chunk[i].wake, 0));
      go[i] = static_cast<Slot>(schedule_->next_family_start(j0));
    }
    for (std::size_t w = 0; w < n_words; ++w) {
      const Slot t0 = from + static_cast<Slot>(64 * w);
      std::size_t n_live = 0;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (go[i] >= t0 + 64) {  // still waiting for a family boundary
          chunk[i].out_words[w] = 0;
          continue;
        }
        live[n_live] = chunk[i].u;
        live_at[n_live++] = i;
      }
      if (n_live == 0) continue;
      // Negative slots are negative indices, which the window keeps silent.
      schedule_->window(t0).words(live.data(), n_live, words.data());
      for (std::size_t l = 0; l < n_live; ++l) {
        const std::size_t i = live_at[l];
        std::uint64_t word = words[l];
        if (go[i] > t0) word &= ~std::uint64_t{0} << (go[i] - t0);
        chunk[i].out_words[w] = word;
      }
    }
  }
}

ProtocolPtr make_wait_and_go(std::uint32_t n, std::uint32_t k, comb::FamilyKind kind,
                             std::uint64_t seed, double family_c) {
  comb::DoublingSchedule::Config config;
  config.n = n;
  config.k_max = k < 2 ? 2 : k;
  config.kind = kind;
  config.seed = seed;
  config.c = family_c;
  return std::make_shared<WaitAndGoProtocol>(comb::make_doubling_schedule(config));
}

}  // namespace wakeup::proto
