#include "protocols/interleaved.hpp"

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
  const Slot w0 = wake < 0 ? 0 : wake;
  const Slot even_wake = (w0 + 1) / 2;  // virtual wakes, as in make_runtime
  const Slot odd_wake = w0 / 2;
  for (std::size_t w = 0; w < n_words; ++w) {
    const Slot b = from + static_cast<Slot>(64 * w);
    // The 32 even-parity global slots in [b, b+64) map to virtual slots
    // (b+1)/2 ... of the even component; the 32 odd-parity ones to
    // b/2 ... of the odd component.  Fetch one virtual word from each and
    // interleave the low halves.
    std::uint64_t even_bits = 0;
    std::uint64_t odd_bits = 0;
    even_sched_->schedule_block(u, even_wake, (b + 1) / 2, &even_bits, 1);
    odd_sched_->schedule_block(u, odd_wake, b / 2, &odd_bits, 1);
    const std::uint64_t e = util::spread_even_bits32(even_bits);
    const std::uint64_t o = util::spread_even_bits32(odd_bits);
    out_words[w] = b % 2 == 0 ? (e | (o << 1)) : (o | (e << 1));
  }
}

}  // namespace wakeup::proto
