#pragma once

/// \file doubling_schedule.hpp
/// The ordered concatenation <F_1, F_2, ..., F_J> of (n, 2^i)-selective
/// families used by both Scenario A (`select_among_the_first`, §3) and
/// Scenario B (`wait_and_go`, §4).
///
/// §4 notation: z_i = |F_i|, z = z_1 + ... + z_J; the global schedule is
/// indexed modulo z ("scanned circularly").  `wait_and_go` additionally
/// needs the *family start offsets*, because a newly awake station must stay
/// silent until the next start so the participant set of a family is frozen
/// during its execution.
///
/// The backend is *implicit*: families are held as `ImplicitFamily` handles
/// whose membership is computed per query (O(levels) construction state, no
/// materialized bitsets), which is what makes k_max-free ladders at
/// n = 2^20 affordable.  `family(i)` materializes lazily — cold path for
/// tests and reports only.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "combinatorics/builders.hpp"
#include "combinatorics/implicit_family.hpp"

namespace wakeup::comb {

class DoublingSchedule {
 public:
  struct Config {
    std::uint32_t n = 0;
    /// Largest contention size covered; families are built for
    /// k = 2^1 .. 2^ceil(log2(k_max)), at least one family.
    std::uint32_t k_max = 2;
    FamilyKind kind = FamilyKind::kRandomized;
    std::uint64_t seed = 1;
    double c = kDefaultRandomFamilyC;
    /// Truncates the concatenation (0 = off): stop appending doubling
    /// levels once the cumulative length has reached this many slots.  At
    /// least one family is always kept, and the family that crosses the
    /// cap is kept whole, so the period is >= prefix_cap (or the full
    /// ladder, whichever is shorter).  Used by protocols whose analysis
    /// guarantees success within a known slot prefix — e.g. wakeup_with_s,
    /// whose round-robin half succeeds within 2n slots, so SATF sets past
    /// index n can never run before success.
    std::uint64_t prefix_cap = 0;
  };

  explicit DoublingSchedule(const Config& config);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// z — the length of one full pass over all families.
  [[nodiscard]] std::uint64_t period() const noexcept { return period_; }

  [[nodiscard]] std::size_t family_count() const noexcept { return implicit_.size(); }

  /// Family i behind the implicit interface — the hot-path handle.
  [[nodiscard]] const ImplicitFamily& implicit_family(std::size_t i) const noexcept {
    return *implicit_[i];
  }

  /// Family i, materialized lazily on first access (cached; thread-safe).
  /// Cold path: tests, verification and reports — the simulation never
  /// needs the bitsets.
  [[nodiscard]] const SelectiveFamily& family(std::size_t i) const;

  /// Offset of family i's first set within the period.
  [[nodiscard]] std::uint64_t family_start(std::size_t i) const noexcept { return starts_[i]; }

  /// Does station u transmit at schedule index `idx` (taken mod period)?
  [[nodiscard]] bool transmits(Station u, std::uint64_t idx) const noexcept;

  /// 64 consecutive schedule indices prepared once for any number of
  /// stations — the tile form of schedule_word.  Lanes in hashed-draw
  /// families (`ImplicitFamily::hashed_window`: the randomized kind) hold
  /// their set's prefix and bound, so a station's bits there are one
  /// util::simd::hash_below lane each; lanes in the other kinds are kept
  /// as per-station `membership_word` chunks.
  class Window {
   public:
    /// out[i] = the window's 64 bits of stations[i]: bit j is
    /// transmits(stations[i], from + j), or 0 where from + j < 0.
    void words(const Station* stations, std::size_t count, std::uint64_t* out) const noexcept;

   private:
    friend class DoublingSchedule;
    struct Chunk {
      const ImplicitFamily* family;
      std::size_t step;  ///< the chunk's first set index in `family`
      unsigned lane;     ///< the window lane it starts at
      unsigned len;      ///< lanes it covers
    };
    std::array<std::uint64_t, 64> prefix_{};
    std::array<std::uint64_t, 64> bound_{};  ///< 0 on every lane not hashed
    std::array<Chunk, 64> chunks_;
    unsigned n_chunks_ = 0;
    bool hashed_ = false;  ///< some lane is hashed
  };

  /// The window over schedule indices from .. from + 63 (taken mod
  /// period); indices below 0 stay silent.
  [[nodiscard]] Window window(std::int64_t from) const noexcept;

  /// Packs 64 consecutive schedule bits of station u starting at index
  /// `from` into one word: bit j = transmits(u, from + j) — the
  /// one-station call of window(from).words.
  [[nodiscard]] std::uint64_t schedule_word(Station u, std::uint64_t from) const noexcept;

  /// Is `idx mod period` the first set of some family?
  [[nodiscard]] bool is_family_start(std::uint64_t idx) const noexcept;

  /// Smallest sigma >= t such that sigma is a family start — the slot at
  /// which a station woken at t may begin transmitting (wait_and_go rule).
  [[nodiscard]] std::uint64_t next_family_start(std::uint64_t t) const noexcept;

  /// Locates the family and in-family step for a schedule index.
  struct Position {
    std::size_t family_index;
    std::uint64_t step;
  };
  [[nodiscard]] Position position(std::uint64_t idx) const noexcept;

 private:
  Config config_;
  std::vector<ImplicitFamilyPtr> implicit_;
  std::vector<std::uint64_t> starts_;  ///< starts_[i] = z_1 + ... + z_{i-1}
  std::uint64_t period_ = 0;
  /// Lazily materialized mirrors of implicit_ (family(i) cache).
  mutable std::vector<std::shared_ptr<const SelectiveFamily>> materialized_;
  mutable std::mutex materialize_mutex_;
};

/// Schedules are immutable and shared by every station runtime of a
/// protocol instance.
using DoublingSchedulePtr = std::shared_ptr<const DoublingSchedule>;

[[nodiscard]] DoublingSchedulePtr make_doubling_schedule(const DoublingSchedule::Config& config);

}  // namespace wakeup::comb
