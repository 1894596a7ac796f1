#include "protocols/aloha.hpp"

#include <algorithm>
#include <bit>

#include "util/rng.hpp"

namespace wakeup::proto {
namespace {

class AlohaRuntime final : public StationRuntime {
 public:
  AlohaRuntime(double p, util::Rng rng) : p_(p), rng_(rng) {}

  [[nodiscard]] bool transmits(Slot t) override {
    (void)t;
    return rng_.bernoulli(p_);
  }

 private:
  double p_;
  util::Rng rng_;
};

/// Dynamic-traffic ALOHA: memoryless per slot, but one rng stream per
/// station per trial — successive packets continue the stream instead of
/// reseeding, which keeps the trial a deterministic function of (seed, u).
/// The coins are drawn 64 at a time into a word, each `next_u64() <
/// bernoulli_threshold(p)` — `rng.bernoulli(p)`'s draw and outcome — and
/// are spent in order, one per backlogged slot, so a coin drawn before an
/// idle gap serves the first slot after it.  `next_event` spends the coins
/// up to the next transmit slot, found by `countr_zero`; `at_` is the
/// first slot without a spent coin, so each visited slot spends exactly
/// one, whichever call reaches it first.
class AlohaStation final : public DynamicStation {
 public:
  AlohaStation(double p, util::Rng rng)
      : threshold_(p < 1.0 ? util::bernoulli_threshold(p) : 0), always_(p >= 1.0), rng_(rng) {}

  void packet_start(Slot start) override { (void)start; }

  [[nodiscard]] Slot next_event(Slot t, Slot limit) override {
    if (hit_ >= t) return std::min(hit_, limit);
    at_ = std::max(at_, t);
    while (at_ < limit) {
      if (left_ == 0) refill();
      // Silent coins before the next transmit coin (all that are left when
      // there is none); countr_zero(0) is 64 >= left_.
      const int run = std::min(std::countr_zero(coins_), left_);
      if (run >= limit - at_) {
        spend(static_cast<int>(limit - at_));
        return limit;
      }
      spend(run);
      if (left_ > 0) {
        hit_ = at_;
        spend(1);
        return hit_;
      }
    }
    return limit;
  }

  [[nodiscard]] bool transmits(Slot t) override {
    if (t < at_) return t == hit_;
    at_ = t;
    if (left_ == 0) refill();
    const bool coin = (coins_ & 1) != 0;
    spend(1);
    if (coin) hit_ = t;
    return coin;
  }

  /// Memoryless: no feedback changes a coin.
  [[nodiscard]] bool hears_others() const override { return false; }

 private:
  /// Draws the next 64 coins; p >= 1 draws none, every coin transmits.
  void refill() {
    left_ = 64;
    if (always_) {
      coins_ = ~std::uint64_t{0};
      return;
    }
    coins_ = 0;
    for (int j = 0; j < 64; ++j) {
      coins_ |= static_cast<std::uint64_t>(rng_.next_u64() < threshold_) << j;
    }
  }

  /// Spends `c` (<= left_) coins on slots at_, at_ + 1, ...
  void spend(int c) {
    coins_ = c >= 64 ? 0 : coins_ >> c;
    left_ -= c;
    at_ += c;
  }

  std::uint64_t threshold_;
  bool always_;
  util::Rng rng_;
  std::uint64_t coins_ = 0;  ///< unspent coins, the next in bit 0
  int left_ = 0;             ///< unspent coins in coins_
  Slot at_ = 0;              ///< first slot whose coin is not spent yet
  Slot hit_ = -1;            ///< latest slot whose coin said "transmit"
};

}  // namespace

std::unique_ptr<StationRuntime> SlottedAlohaProtocol::make_runtime(StationId u, Slot wake) const {
  util::Rng rng(util::hash_words({seed_, 0x414c4f4841ULL /* "ALOHA" */, u,
                                  static_cast<std::uint64_t>(wake)}));
  return std::make_unique<AlohaRuntime>(p_, rng);
}

std::unique_ptr<DynamicStation> SlottedAlohaProtocol::make_dynamic_station(StationId u) const {
  util::Rng rng(util::hash_words({seed_, 0x44414c4f4841ULL /* "DALOHA" */, u}));
  return std::make_unique<AlohaStation>(p_, rng);
}

ProtocolPtr SlottedAlohaProtocol::for_k(std::uint32_t k, std::uint64_t seed) {
  return std::make_shared<SlottedAlohaProtocol>(1.0 / static_cast<double>(k < 1 ? 1 : k), seed);
}

}  // namespace wakeup::proto
