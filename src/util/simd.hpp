#pragma once

/// \file simd.hpp
/// Word-matrix kernels of the tile core (sim/batch_engine.cpp), which
/// serves static, C-lane and dynamic runs alike, the resample draws of
/// the bootstrap CIs (util/stats.cpp) and the bursty arrival streams.
///
/// The core resolves channel contention over a *station-major word
/// matrix*: one row of W consecutive 64-slot schedule words per live
/// station per resolve round (a "tile" of 64·W slots).  Everything the
/// tile loop does to such a matrix is three data-parallel primitives:
///
///  * `or_accumulate` — folds one station row into its lane's any/multi
///    OR reduction (`any` has a bit where >= 1 station transmits, `multi`
///    where >= 2 do), so a lane's reduction, and the re-reduction after a
///    winner's row changes mid-tile, are one call per row;
///  * `masked_popcount_pair` — silence (`~any & mask`) and collision
///    (`multi & mask`) popcounts over a tile of pending-slot masks;
///  * `first_set_below` — first set bit over a word array below a bit
///    bound (the first solo-success slot of a tile).
///
/// The schedule emitters add a fourth, `hash_below`: the words of a 64-slot
/// window where bit j of station u's word is
/// `hash_combine(prefix[j], mix64(u)) < bound[j]` — the §5 matrix bit and
/// the randomized selective family's draw, whose per-slot prefix is shared
/// by every station (a non-adaptive schedule is one fixed 0/1 matrix, so
/// all stations read the same column at a slot).
///
/// The bootstrap adds a fifth and a sixth, `resampled_means` and
/// `resampled_quantile`: eight xoshiro256** streams stepped in lockstep,
/// each draw reduced to an index in [0, n) by Lemire's multiply as
/// util::Rng::uniform does, and folded into the resampled statistic as it
/// is drawn — a running sum per sample for the means, the tie classes of
/// the draws for a quantile — so no index passes through memory.  Both
/// flag every draw where uniform could have rejected.  The CIs jump one
/// stream to eight starting points (Xoshiro256ss::jump) and draw eight
/// resamples at once.
///
/// The arrival streams add a seventh, `bursty_lanes`: the on/off bursty
/// streams of eight stations (mac/arrival_process.cpp), each lane one
/// station's substream, stepped slot by slot in lockstep.
///
/// Each primitive has a portable std::uint64_t implementation and, when
/// the build enables WAKEUP_SIMD, vectorized variants: AVX2 on x86-64
/// (picked at runtime via cpuid), an AVX-512F/DQ rung above it whose
/// `hash_below` mixes 8 lanes at once (`vpmullq`), whose `bursty_lanes`
/// and `resampled_means` hold the eight states in four registers (the
/// means gather each lane's value with `vgatherqpd` and add it in a zmm
/// lane), and whose `resampled_quantile` packs the draws' class bytes into
/// registers (`vpermb`) when n <= 64 and the sample has <= 64 tie classes,
/// and finds each order statistic by a branch-free binary search over
/// those bytes; it needs AVX-512BW and VBMI as well, and a host without
/// them runs its scalar twin.  The word kernels stay AVX2.  NEON on arm64.
/// Tables without a vector `hash_below`, `bursty_lanes` or bootstrap entry
/// carry the scalar twin.
/// Selection is one atomic table pointer; `set_force_scalar` (or the
/// WAKEUP_FORCE_SCALAR environment variable, read once at startup) pins
/// the scalar table so tests and benches can compare the paths bit for
/// bit in-process.  All kernels are exact — the SIMD and scalar tables
/// must produce identical outputs for identical inputs
/// (tests/test_simd_kernels.cpp), so engine results and CIs never depend
/// on the host ISA.

#include <cstddef>
#include <cstdint>

namespace wakeup::util::simd {

/// Sentinel returned by `first_set_below` when no bit qualifies.
inline constexpr std::size_t kNoBit = static_cast<std::size_t>(-1);

/// A Bernoulli coin as `bursty_lanes` tosses it.  A coin that `draws`
/// steps its lane's stream once and lands when the draw is below
/// `threshold` (util::bernoulli_threshold); one that does not draw lands
/// iff `always`.
struct LaneCoin {
  std::uint64_t threshold;
  bool draws;
  bool always;
};

/// One implementation of the kernel suite.  `or_accumulate` folds a
/// station row into the running reduction: for every word w < words,
/// multi[w] |= any[w] & row[w]; any[w] |= row[w].
/// `masked_popcount_pair` adds popcount(~any[w] & mask[w]) to *silences
/// and popcount(multi[w] & mask[w]) to *collisions.  `hash_below` writes,
/// for every i < count, out[i] = the word whose bit j (j < 64) is
/// util::hash_combine(prefix[j], keys[i]) < bound[j].
///
/// The bootstrap entries step eight xoshiro256** streams; word w of lane
/// l's state is state[8w + l], and each call leaves the stepped states
/// there.  Each lane draws `steps` resamples of n indices, one index per
/// step of its stream: with x the lane's output, the index is
/// ⌊x·n / 2⁶⁴⌋, which is util::Rng::uniform(n) whenever uniform does not
/// reject.  Resample s of lane l is written at [l·steps + s].  Each entry
/// returns true iff some draw's low word x·n mod 2⁶⁴ is below n, a
/// superset of the draws uniform rejects; the outputs are complete either
/// way.  Both require 1 <= n < 2³².
///
/// `resampled_means` folds `samples` (1 or 2) samples of n values at once:
/// for each, a resample adds values[k][index] over its draws, in draw
/// order from 0.0, and writes the sum divided by n to means[k].
///
/// `resampled_quantile` reads each value's tie class (class_of[i] <
/// classes, class 0 the smallest value) and writes to lo_class and
/// hi_class, for each resample, the classes holding its order statistics
/// at ranks rank_lo and rank_hi (both < n): the number of classes c whose
/// running count — the draws of classes 0..c — is at most the rank.
///
/// `bursty_lanes` steps eight on/off streams `slots` slots, in the same
/// state layout; bit l of *on is lane l's on/off state, and only the
/// lanes set in `live` move.  In each slot t, every live lane that is on
/// tosses `arrive`, and bit l of out[t] is set when lane l's lands; then
/// every live lane tosses `flip`, and turns over when it lands.  The call
/// leaves the stepped states and the on bits in place; lanes outside
/// `live` keep theirs and never arrive.
struct Kernels {
  void (*or_accumulate)(std::uint64_t* any, std::uint64_t* multi, const std::uint64_t* row,
                        std::size_t words);
  void (*masked_popcount_pair)(const std::uint64_t* any, const std::uint64_t* multi,
                               const std::uint64_t* mask, std::size_t words,
                               std::uint64_t* silences, std::uint64_t* collisions);
  void (*hash_below)(const std::uint64_t* prefix, const std::uint64_t* bound,
                     const std::uint64_t* keys, std::size_t count, std::uint64_t* out);
  bool (*resampled_means)(std::uint64_t* state, const double* const* values,
                          std::size_t samples, std::size_t n, std::size_t steps,
                          double* const* means);
  bool (*resampled_quantile)(std::uint64_t* state, const std::size_t* class_of,
                             std::size_t classes, std::size_t n, std::size_t rank_lo,
                             std::size_t rank_hi, std::size_t steps, std::size_t* lo_class,
                             std::size_t* hi_class);
  void (*bursty_lanes)(std::uint64_t* state, std::uint8_t live, std::uint8_t* on,
                       LaneCoin arrive, LaneCoin flip, std::size_t slots, std::uint8_t* out);
  const char* name;  ///< "scalar", "avx2", "avx512", "neon"
};

/// The kernel table in effect: the best ISA variant the build and the CPU
/// support, or the scalar table when forced.  Cheap (one relaxed atomic
/// load); safe to call concurrently.
[[nodiscard]] const Kernels& active() noexcept;

/// Name of the active table ("scalar", "avx2", "avx512", "neon").
[[nodiscard]] const char* active_name() noexcept;

/// Pin (or unpin) the scalar table, overriding both the ISA probe and the
/// WAKEUP_FORCE_SCALAR environment variable.  For tests and benches that
/// compare the two paths in one process.
void set_force_scalar(bool force) noexcept;

/// The active table's `hash_below`: out[i] is the 64-slot word of key
/// keys[i] (a station pre-mixed as util::mix64(u)) under the window
/// prefix[0..64) / bound[0..64).  A zero bound silences its slot.
inline void hash_below(const std::uint64_t* prefix, const std::uint64_t* bound,
                       const std::uint64_t* keys, std::size_t count, std::uint64_t* out) noexcept {
  active().hash_below(prefix, bound, keys, count, out);
}

/// First set bit over words[0 .. n_words), as a flat bit index (word 0 bit
/// 0 = index 0), considering only indices < limit_bits.  Returns kNoBit
/// when nothing qualifies.  Memory-bound scan: the portable version is a
/// testz/ctz loop; no ISA variant is worth it at tile widths.
[[nodiscard]] std::size_t first_set_below(const std::uint64_t* words, std::size_t n_words,
                                          std::size_t limit_bits) noexcept;

}  // namespace wakeup::util::simd
