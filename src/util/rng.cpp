#include "util/rng.hpp"

namespace wakeup::util {

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1ULL;
  return lo + static_cast<std::int64_t>(uniform(span));
}

unsigned Rng::coin_run(unsigned cap) noexcept {
  unsigned run = 0;
  while (run < cap && bernoulli_pow2(1)) ++run;
  return run;
}

}  // namespace wakeup::util
