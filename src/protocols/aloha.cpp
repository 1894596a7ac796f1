#include "protocols/aloha.hpp"

#include <algorithm>

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
/// `next_event` draws the per-slot coins ahead up to the next transmit
/// slot; `drawn_to_` marks the first slot without a coin, so each visited
/// slot draws exactly once, whichever call reaches it first.
class AlohaStation final : public DynamicStation {
 public:
  AlohaStation(double p, util::Rng rng) : p_(p), rng_(rng) {}

  void packet_start(Slot start) override { (void)start; }

  [[nodiscard]] Slot next_event(Slot t, Slot limit) override {
    if (hit_ >= t) return std::min(hit_, limit);
    for (Slot s = std::max(t, drawn_to_); s < limit; ++s) {
      drawn_to_ = s + 1;
      if (rng_.bernoulli(p_)) return hit_ = s;
    }
    return limit;
  }

  [[nodiscard]] bool transmits(Slot t) override {
    if (t < drawn_to_) return t == hit_;
    drawn_to_ = t + 1;
    if (!rng_.bernoulli(p_)) return false;
    hit_ = t;
    return true;
  }

  /// Memoryless: no feedback changes a coin.
  [[nodiscard]] bool hears_others() const override { return false; }

 private:
  double p_;
  util::Rng rng_;
  Slot drawn_to_ = 0;  ///< first slot whose coin is not drawn yet
  Slot hit_ = -1;      ///< latest slot whose coin said "transmit"
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
