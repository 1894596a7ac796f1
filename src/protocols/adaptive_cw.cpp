#include "protocols/adaptive_cw.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace wakeup::proto {
namespace {

/// Shared AIMD window mechanics: uniform pick inside [start, start + cw),
/// double on expiry without an own delivery, halve on delivery.
class CwWindow {
 public:
  CwWindow(std::uint32_t cw_min, unsigned cw_max_log2, util::Rng rng)
      : cw_min_(std::max<std::uint32_t>(1, cw_min)),
        cw_max_(std::uint64_t{1} << (cw_max_log2 > 30 ? 30 : cw_max_log2)),
        cw_(cw_min_),
        rng_(rng) {}

  void open(Slot start, unsigned penalty) {
    const std::uint64_t effective = std::min<std::uint64_t>(cw_ << penalty, cw_max_);
    window_end_ = start + static_cast<Slot>(effective);
    pick_ = start + static_cast<Slot>(rng_.uniform(effective));
  }

  /// Returns true when slot t transmits; reopens (with doubling) on expiry.
  bool transmits(Slot t, unsigned penalty) {
    if (t >= window_end_) {
      expire(penalty);
      // Idle gaps (empty queue) can leave window_end_ far behind t.
      while (t >= window_end_) open(window_end_, penalty);
    }
    return t == pick_;
  }

  void on_delivery() { cw_ = std::max<std::uint64_t>(cw_ / 2, cw_min_); }

  /// From slot t on, the first slot `transmits` must see: the pick if it is
  /// still ahead, else the window's end (which reopens); never before t.
  /// When the pick has passed and the window ends at or after t, but no
  /// later than `reopen_by`, the window reopens here, exactly as
  /// `transmits` would at its end, and the new pick is the answer.
  [[nodiscard]] Slot next_event(Slot t, unsigned penalty, Slot reopen_by) {
    if (pick_ < t && t <= window_end_ && window_end_ <= reopen_by) expire(penalty);
    return std::max(t, pick_ >= t ? pick_ : window_end_);
  }

 private:
  /// The window ended without an own delivery: double and reopen at its end.
  void expire(unsigned penalty) {
    cw_ = std::min<std::uint64_t>(cw_ * 2, cw_max_);
    open(window_end_, penalty);
  }

  std::uint32_t cw_min_;
  std::uint64_t cw_max_;
  std::uint64_t cw_;
  Slot window_end_ = 0;
  Slot pick_ = 0;
  util::Rng rng_;
};

/// One-shot fallback for static wake-up runs: AIMD window, no fairness
/// state (a single packet has no share to steer).
class AdaptiveCwRuntime final : public StationRuntime {
 public:
  AdaptiveCwRuntime(Slot wake, std::uint32_t cw_min, unsigned cw_max_log2, util::Rng rng)
      : window_(cw_min, cw_max_log2, rng) {
    window_.open(wake, 0);
  }

  [[nodiscard]] bool transmits(Slot t) override { return window_.transmits(t, 0); }

 private:
  CwWindow window_;
};

class AdaptiveCwStation final : public DynamicStation {
 public:
  AdaptiveCwStation(const AdaptiveCwProtocol::Config& config, util::Rng rng)
      : config_(config),
        window_(config.cw_min, config.cw_max_log2, rng),
        epoch_end_(config.epoch) {}

  void packet_start(Slot start) override { window_.open(start, penalty_); }

  /// The window's next event, or the epoch's end, where feedback settles.
  /// A passed window reopens ahead only up to the epoch's end: settling
  /// may change the penalty a later reopening reads.
  [[nodiscard]] Slot next_event(Slot t, Slot limit) override {
    return std::min({window_.next_event(t, penalty_, epoch_end_), std::max(t, epoch_end_), limit});
  }

  [[nodiscard]] bool transmits(Slot t) override { return window_.transmits(t, penalty_); }

  /// Skipped successes fall before the epoch's end, a visited slot: they
  /// only add to the epoch's tally.
  void heard_others(std::uint64_t n) override { heard_in_epoch_ += n; }

  void feedback(Slot t, ChannelFeedback fb, bool delivered) override {
    if (fb == ChannelFeedback::kSuccess) {
      ++heard_in_epoch_;
      if (delivered) {
        ++own_in_epoch_;
        window_.on_delivery();
      }
    }
    if (t >= epoch_end_) {
      settle_epoch();
      epoch_end_ = t + config_.epoch;
    }
  }

 private:
  /// The distributed fairness step: compare this station's share of heard
  /// successes against the fair share 1/k; widen the effective window when
  /// over-served, narrow when under-served.  Epochs with too few successes
  /// carry no signal and are skipped.
  void settle_epoch() {
    if (heard_in_epoch_ >= 4) {
      const double share =
          static_cast<double>(own_in_epoch_) / static_cast<double>(heard_in_epoch_);
      const double target = 1.0 / static_cast<double>(std::max<std::uint32_t>(1, config_.k));
      if (share > target * (1.0 + config_.tolerance)) {
        penalty_ = std::min(penalty_ + 1, 4u);
      } else if (share < target / (1.0 + config_.tolerance) && penalty_ > 0) {
        --penalty_;
      }
    }
    own_in_epoch_ = 0;
    heard_in_epoch_ = 0;
  }

  AdaptiveCwProtocol::Config config_;
  CwWindow window_;
  unsigned penalty_ = 0;
  Slot epoch_end_;
  std::uint64_t own_in_epoch_ = 0;
  std::uint64_t heard_in_epoch_ = 0;
};

}  // namespace

AdaptiveCwProtocol::AdaptiveCwProtocol(Config config) : config_(config) {
  config_.cw_min = std::max<std::uint32_t>(1, config_.cw_min);
  config_.epoch = std::max<Slot>(16, config_.epoch);
  if (config_.tolerance < 0.0) config_.tolerance = 0.0;
}

std::unique_ptr<StationRuntime> AdaptiveCwProtocol::make_runtime(StationId u, Slot wake) const {
  util::Rng rng(util::hash_words({config_.seed, 0x41435720ULL /* "ACW " */, u,
                                  static_cast<std::uint64_t>(wake)}));
  return std::make_unique<AdaptiveCwRuntime>(wake, config_.cw_min, config_.cw_max_log2, rng);
}

std::unique_ptr<DynamicStation> AdaptiveCwProtocol::make_dynamic_station(StationId u) const {
  // One stream per station per trial — packets share it, so the adaptive
  // state and its draws are a deterministic function of (seed, u).
  util::Rng rng(util::hash_words({config_.seed, 0x414357ULL /* "ACW" */, u}));
  return std::make_unique<AdaptiveCwStation>(config_, rng);
}

}  // namespace wakeup::proto
