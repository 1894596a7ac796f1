#include "protocols/backoff.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace wakeup::proto {
namespace {

class BackoffRuntime final : public StationRuntime {
 public:
  BackoffRuntime(Slot wake, std::uint32_t initial_window, unsigned max_window_log2,
                 util::Rng rng)
      : max_window_log2_(max_window_log2), rng_(rng) {
    window_ = initial_window;
    open_window(wake);
  }

  [[nodiscard]] bool transmits(Slot t) override {
    if (t >= window_end_) {
      // A full window passed without hearing success: double and retry.
      if (window_ < (std::uint64_t{1} << max_window_log2_)) window_ *= 2;
      open_window(window_end_);
    }
    return t == pick_;
  }

  void feedback(Slot t, ChannelFeedback fb) override {
    (void)t;
    // In the paper's no-CD model a station only ever hears kSuccess or
    // kNothing; success ends the wake-up run, so no state is needed here.
    // (Under collision detection one could reset the window on silence;
    // deliberately not done to stay within the paper's feedback model.)
    (void)fb;
  }

 private:
  void open_window(Slot start) {
    window_end_ = start + static_cast<Slot>(window_);
    pick_ = start + static_cast<Slot>(rng_.uniform(window_));
  }

  std::uint64_t window_;
  unsigned max_window_log2_;
  Slot window_end_ = 0;
  Slot pick_ = 0;
  util::Rng rng_;
};

/// Dynamic-traffic BEB: the window survives across the packets of one
/// trial as a congestion estimate — an own delivery halves it (additive
/// relief would be too slow against doubling), a window that expires
/// without one still doubles.  Each new head-of-line packet re-contends
/// inside the inherited window instead of restarting from scratch.
class BackoffStation final : public DynamicStation {
 public:
  BackoffStation(std::uint32_t initial_window, unsigned max_window_log2, util::Rng rng)
      : initial_window_(initial_window), max_window_log2_(max_window_log2), rng_(rng) {
    window_ = initial_window_;
  }

  void packet_start(Slot start) override { open_window(start); }

  /// The pick if it is still ahead.  Once it has passed, the window
  /// reopens here, exactly as `transmits` would at its end — nothing but an
  /// own delivery, which needs a transmit, moves the window before then —
  /// and the new pick is the answer.
  [[nodiscard]] Slot next_event(Slot t, Slot limit) override {
    if (pick_ < t && t <= window_end_) expire();
    return std::min(std::max(t, pick_ >= t ? pick_ : window_end_), limit);
  }

  [[nodiscard]] bool transmits(Slot t) override {
    if (t >= window_end_) {
      expire();
      // Idle gaps (empty queue) can leave window_end_ far behind t; those
      // skipped windows saw no traffic from us, so they do not double.
      while (t >= window_end_) open_window(window_end_);
    }
    return t == pick_;
  }

  void feedback(Slot t, ChannelFeedback fb, bool delivered) override {
    (void)t;
    (void)fb;
    if (delivered) window_ = std::max<std::uint64_t>(window_ / 2, initial_window_);
  }

  /// Only an own delivery moves the window.
  [[nodiscard]] bool hears_others() const override { return false; }

 private:
  void open_window(Slot start) {
    window_end_ = start + static_cast<Slot>(window_);
    pick_ = start + static_cast<Slot>(rng_.uniform(window_));
  }

  /// A full window passed without an own delivery: double and reopen at
  /// its end.
  void expire() {
    if (window_ < (std::uint64_t{1} << max_window_log2_)) window_ *= 2;
    open_window(window_end_);
  }

  std::uint32_t initial_window_;
  unsigned max_window_log2_;
  std::uint64_t window_;
  Slot window_end_ = 0;
  Slot pick_ = 0;
  util::Rng rng_;
};

}  // namespace

std::unique_ptr<StationRuntime> BinaryBackoffProtocol::make_runtime(StationId u,
                                                                    Slot wake) const {
  util::Rng rng(util::hash_words({seed_, 0x424f4646ULL /* "BOFF" */, u,
                                  static_cast<std::uint64_t>(wake)}));
  return std::make_unique<BackoffRuntime>(wake, initial_window_, max_window_log2_, rng);
}

std::unique_ptr<DynamicStation> BinaryBackoffProtocol::make_dynamic_station(StationId u) const {
  util::Rng rng(util::hash_words({seed_, 0x44424f4646ULL /* "DBOFF" */, u}));
  return std::make_unique<BackoffStation>(initial_window_, max_window_log2_, rng);
}

}  // namespace wakeup::proto
