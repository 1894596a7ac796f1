#include "protocols/wakeup_with_s.hpp"

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
  const bool participates_satf = wake == s_;
  const auto n = static_cast<Slot>(schedule_->config().n);
  for (std::size_t w = 0; w < n_words; ++w) {
    const Slot t0 = from + static_cast<Slot>(64 * w);
    const Slot d0 = t0 - s_;
    if (d0 < 0) {
      // Boundary block straddling s: per-bit replica of the runtime rule.
      std::uint64_t word = 0;
      for (unsigned j = 0; j < 64; ++j) {
        const Slot d = d0 + static_cast<Slot>(j);
        if (d < 0) continue;
        const bool on = d % 2 == 0
                            ? (d / 2) % n == static_cast<Slot>(u)
                            : participates_satf &&
                                  schedule_->transmits(
                                      u, static_cast<std::uint64_t>((d - 1) / 2));
        if (on) word |= std::uint64_t{1} << j;
      }
      out_words[w] = word;
      continue;
    }
    // Even offsets d = 2v run round-robin at virtual slot v, odd offsets
    // d = 2v + 1 run SATF at v.  The 32 even offsets in this block cover
    // virtual slots (d0+1)/2 ..., the 32 odd ones d0/2 ...; build each
    // 32-bit half and interleave by block parity.
    const Slot ve0 = (d0 + 1) / 2;
    std::uint64_t rr_bits = 0;
    if (static_cast<Slot>(u) < n) {  // out-of-universe stations never get a TDM turn
      Slot i = (static_cast<Slot>(u) - ve0) % n;
      if (i < 0) i += n;
      for (; i < 32; i += n) rr_bits |= std::uint64_t{1} << i;
    }
    const std::uint64_t satf_bits =
        participates_satf ? schedule_->schedule_word(u, static_cast<std::uint64_t>(d0 / 2)) : 0;
    const std::uint64_t rr = util::spread_even_bits32(rr_bits);
    const std::uint64_t satf = util::spread_even_bits32(satf_bits);
    out_words[w] = d0 % 2 == 0 ? (rr | (satf << 1)) : (satf | (rr << 1));
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
