#include "protocols/interleaved.hpp"

#include <algorithm>
#include <array>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace wakeup::proto {
namespace {

class InterleavedRuntime final : public StationRuntime {
 public:
  InterleavedRuntime(std::unique_ptr<StationRuntime> even, std::unique_ptr<StationRuntime> odd)
      : even_(std::move(even)), odd_(std::move(odd)) {}

  [[nodiscard]] bool transmits(Slot t) override {
    if (t % 2 == 0) return even_->transmits(t / 2);
    return odd_->transmits((t - 1) / 2);
  }

  void feedback(Slot t, ChannelFeedback fb) override {
    if (t % 2 == 0) {
      even_->feedback(t / 2, fb);
    } else {
      odd_->feedback((t - 1) / 2, fb);
    }
  }

 private:
  std::unique_ptr<StationRuntime> even_;
  std::unique_ptr<StationRuntime> odd_;
};

}  // namespace

Requirements InterleavedProtocol::requirements() const {
  const Requirements a = even_->requirements();
  const Requirements b = odd_->requirements();
  Requirements r;
  r.needs_global_clock = a.needs_global_clock || b.needs_global_clock;
  r.needs_start_time = a.needs_start_time || b.needs_start_time;
  r.needs_k = a.needs_k || b.needs_k;
  r.needs_collision_detection = a.needs_collision_detection || b.needs_collision_detection;
  r.randomized = a.randomized || b.randomized;
  return r;
}

std::unique_ptr<StationRuntime> InterleavedProtocol::make_runtime(StationId u, Slot wake) const {
  if (wake < 0) wake = 0;
  // First even slot >= wake is 2*ceil(wake/2); first odd is 2*floor(wake/2)+1.
  const Slot even_wake = (wake + 1) / 2;
  const Slot odd_wake = wake / 2;
  return std::make_unique<InterleavedRuntime>(even_->make_runtime(u, even_wake),
                                              odd_->make_runtime(u, odd_wake));
}

void InterleavedProtocol::schedule_block(StationId u, Slot wake, Slot from,
                                         std::uint64_t* out_words, std::size_t n_words) const {
  const TileStation station{u, wake, out_words};
  schedule_tile({&station, 1}, from, n_words);
}

void InterleavedProtocol::schedule_tile(std::span<const TileStation> stations, Slot from,
                                        std::size_t n_words) const {
  // Word w's 32 even-parity slots are virtual slots ve + 32w .. of the
  // even component and its 32 odd-parity ones vo + 32w .. of the odd one,
  // so virtual word v serves words 2v and 2v + 1.  Tiles are fetched
  // kBlock words at a time to keep the virtual rows in stack scratch.
  constexpr std::size_t kBlock = 8;
  constexpr std::size_t kVirtual = kBlock / 2;
  const Slot parity = from & 1;
  const Slot vo = (from - parity) / 2;
  const Slot ve = vo + parity;
  std::array<TileStation, kTileChunk> even_rows;
  std::array<TileStation, kTileChunk> odd_rows;
  std::array<std::uint64_t, kTileChunk * kVirtual> even_words;
  std::array<std::uint64_t, kTileChunk * kVirtual> odd_words;
  for (std::size_t c0 = 0; c0 < stations.size(); c0 += kTileChunk) {
    const auto chunk = stations.subspan(c0, std::min(kTileChunk, stations.size() - c0));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const Slot w0 = chunk[i].wake < 0 ? 0 : chunk[i].wake;
      // Virtual wakes, as in make_runtime: the first even and odd slots
      // at or after the wake.
      even_rows[i] = {chunk[i].u, (w0 + 1) / 2, even_words.data() + i * kVirtual};
      odd_rows[i] = {chunk[i].u, w0 / 2, odd_words.data() + i * kVirtual};
    }
    for (std::size_t b = 0; b < n_words; b += kBlock) {
      const std::size_t nw = std::min(kBlock, n_words - b);
      const std::size_t nv = (nw + 1) / 2;
      const auto half_from = static_cast<Slot>(32 * b);
      even_sched_->schedule_tile({even_rows.data(), chunk.size()}, ve + half_from, nv);
      odd_sched_->schedule_tile({odd_rows.data(), chunk.size()}, vo + half_from, nv);
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        for (std::size_t w = 0; w < nw; ++w) {
          const std::size_t half = 32 * (w % 2);
          const std::uint64_t e =
              util::spread_even_bits32(even_rows[i].out_words[w / 2] >> half);
          const std::uint64_t o = util::spread_even_bits32(odd_rows[i].out_words[w / 2] >> half);
          chunk[i].out_words[b + w] = parity == 0 ? (e | (o << 1)) : (o | (e << 1));
        }
      }
    }
  }
}

}  // namespace wakeup::proto
