#include "combinatorics/doubling_schedule.hpp"

#include <algorithm>

#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wakeup::comb {

DoublingSchedule::DoublingSchedule(const Config& config) : config_(config) {
  const unsigned levels = std::max(1u, util::ceil_log2(std::max<std::uint32_t>(2, config.k_max)));
  std::uint64_t offset = 0;
  for (unsigned j = 1; j <= levels; ++j) {
    if (config.prefix_cap > 0 && !implicit_.empty() && offset >= config.prefix_cap) break;
    const auto kj = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config.n, util::ipow(2, j)));
    const std::uint64_t family_seed = util::hash_words({config.seed, 0x444246ULL, j});
    ImplicitFamilyPtr fam = make_implicit_family(config.kind, config.n, kj, family_seed, config.c);
    starts_.push_back(offset);
    offset += fam->length();
    implicit_.push_back(std::move(fam));
  }
  period_ = offset;
  materialized_.resize(implicit_.size());
}

const SelectiveFamily& DoublingSchedule::family(std::size_t i) const {
  const std::lock_guard<std::mutex> lock(materialize_mutex_);
  if (!materialized_[i]) {
    materialized_[i] = std::make_shared<const SelectiveFamily>(implicit_[i]->materialize());
  }
  return *materialized_[i];
}

bool DoublingSchedule::transmits(Station u, std::uint64_t idx) const noexcept {
  const Position pos = position(idx);
  return implicit_[pos.family_index]->contains(static_cast<std::size_t>(pos.step), u);
}

DoublingSchedule::Window DoublingSchedule::window(std::int64_t from) const noexcept {
  Window win;
  unsigned lane = from < 0 ? static_cast<unsigned>(std::min<std::int64_t>(-from, 64)) : 0;
  if (lane == 64) return win;
  Position pos = position(static_cast<std::uint64_t>(from + lane));
  while (lane < 64) {
    const ImplicitFamily& fam = *implicit_[pos.family_index];
    const auto step = static_cast<std::size_t>(pos.step);
    const auto len =
        static_cast<unsigned>(std::min<std::uint64_t>(64 - lane, fam.length() - step));
    if (len > 0) {
      if (fam.hashed_window(step, len, win.prefix_.data() + lane, win.bound_.data() + lane)) {
        win.hashed_ = true;
      } else {
        win.chunks_[win.n_chunks_++] = {&fam, step, lane, len};
      }
    }
    lane += len;
    pos.family_index = pos.family_index + 1 == implicit_.size() ? 0 : pos.family_index + 1;
    pos.step = 0;
  }
  return win;
}

void DoublingSchedule::Window::words(const Station* stations, std::size_t count,
                                     std::uint64_t* out) const noexcept {
  if (hashed_) {
    std::array<std::uint64_t, 64> keys;
    for (std::size_t i0 = 0; i0 < count; i0 += keys.size()) {
      const std::size_t m = std::min(count - i0, keys.size());
      for (std::size_t i = 0; i < m; ++i) keys[i] = util::mix64(stations[i0 + i]);
      util::simd::hash_below(prefix_.data(), bound_.data(), keys.data(), m, out + i0);
    }
  } else {
    std::fill(out, out + count, 0);
  }
  for (unsigned c = 0; c < n_chunks_; ++c) {
    const Chunk& chunk = chunks_[c];
    const std::uint64_t mask =
        chunk.len == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << chunk.len) - 1;
    for (std::size_t i = 0; i < count; ++i) {
      out[i] |= (chunk.family->membership_word(stations[i], chunk.step) & mask) << chunk.lane;
    }
  }
}

std::uint64_t DoublingSchedule::schedule_word(Station u, std::uint64_t from) const noexcept {
  std::uint64_t word = 0;
  window(static_cast<std::int64_t>(from)).words(&u, 1, &word);
  return word;
}

DoublingSchedule::Position DoublingSchedule::position(std::uint64_t idx) const noexcept {
  const std::uint64_t off = idx % period_;
  // starts_ is sorted; find the last start <= off.
  auto it = std::upper_bound(starts_.begin(), starts_.end(), off);
  const auto fam = static_cast<std::size_t>(std::distance(starts_.begin(), it)) - 1;
  return Position{fam, off - starts_[fam]};
}

bool DoublingSchedule::is_family_start(std::uint64_t idx) const noexcept {
  const std::uint64_t off = idx % period_;
  return std::binary_search(starts_.begin(), starts_.end(), off);
}

std::uint64_t DoublingSchedule::next_family_start(std::uint64_t t) const noexcept {
  const std::uint64_t off = t % period_;
  auto it = std::lower_bound(starts_.begin(), starts_.end(), off);
  if (it != starts_.end()) return t + (*it - off);
  // Wrap to the first start (offset 0) of the next period.
  return t + (period_ - off);
}

DoublingSchedulePtr make_doubling_schedule(const DoublingSchedule::Config& config) {
  return std::make_shared<const DoublingSchedule>(config);
}

}  // namespace wakeup::comb
