#include "combinatorics/builders.hpp"
#include "combinatorics/implicit_family.hpp"
#include "util/rng.hpp"

namespace wakeup::comb {

SelectiveFamily build_randomized(std::uint32_t n, std::uint32_t k, double c,
                                 std::uint64_t seed) {
  k = detail::clamp_family_k(n, k);
  const std::size_t length = detail::randomized_length(n, k, c);
  // Membership is a counter-RNG draw per (set, station) coordinate — a pure
  // function of (stream seed, j, u) rather than a sequential stream, so the
  // implicit backend can re-derive any single bit in O(1) and stay
  // bit-identical to this materialization.
  const std::uint64_t stream_state = util::hash_words({detail::randomized_stream_seed(seed, n, k)});
  const double p = 1.0 / static_cast<double>(k);

  std::vector<TransmissionSet> sets;
  sets.reserve(length);
  for (std::size_t j = 0; j < length; ++j) {
    util::DynamicBitset bits(n);
    for (std::uint32_t u = 0; u < n; ++u) {
      if (detail::randomized_member(stream_state, j, util::mix64(u), p)) bits.set(u);
    }
    sets.emplace_back(std::move(bits));
  }
  return SelectiveFamily(FamilyParams{n, k}, std::move(sets), "randomized");
}

}  // namespace wakeup::comb
