#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <sstream>

#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wakeup::util {

namespace {

/// Where the linear-interpolated p-quantile of n >= 1 sorted values falls:
/// `frac` of the way from rank `lo` to rank `hi`.
struct QuantileSpot {
  std::size_t lo;
  std::size_t hi;
  double frac;

  QuantileSpot(std::size_t n, double p) {
    const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(n - 1);
    lo = static_cast<std::size_t>(pos);
    hi = std::min(lo + 1, n - 1);
    frac = pos - static_cast<double>(lo);
  }

  /// The quantile, from the values at ranks lo and hi.
  [[nodiscard]] double at(double lo_value, double hi_value) const {
    return lo_value * (1.0 - frac) + hi_value * frac;
  }
};

/// Linear-interpolated p-quantile of a sorted, non-empty sample.
double sorted_quantile(const std::vector<double>& sorted, double p) {
  const QuantileSpot spot(sorted.size(), p);
  return spot.at(sorted[spot.lo], sorted[spot.hi]);
}

/// Ranks one select_ranks call resolves.
constexpr std::size_t kMaxRanks = 8;

/// Writes to out[i] the value a full ascending sort of `values` (non-empty)
/// would put at rank ranks[i] < values.size(), for at most kMaxRanks
/// ranks in any order (like a sort, it may exchange −0 and +0, which
/// compare equal).  One pass finds the min and the max, which are
/// ranks 0 and size − 1.  A second counts the values into buckets
/// ⌊(x − min)·scale⌋, which IEEE rounding keeps monotone in x, so each
/// bucket holds a contiguous run of ranks; a third copies out the values
/// of the few buckets that hold a rank, and each rank is selected inside
/// its bucket.  A pass over the values branches only on a value that lands
/// in such a bucket, a few per rank, so unlike a sort or a selection over
/// all of them it rarely mispredicts.  One buffer holds the bucket counts
/// and then the bands as value indices; it grows once, by the bands.
void select_ranks(const std::vector<double>& values, std::span<const std::size_t> ranks,
                  double* out) {
  const std::size_t size = values.size();
  double min = values[0];
  double max = values[0];
  for (const double x : values) {
    min = x < min ? x : min;
    max = x > max ? x : max;
  }
  const double spread = max - min;
  if (!(spread > 0.0)) {  // max == min: every rank holds the one value
    std::fill(out, out + ranks.size(), min);
    return;
  }
  // An infinite spread gets one bucket, as x - min may be inf or NaN; the
  // comparison below sends both to the last bucket.  Buckets fit in int64_t,
  // whose conversion from double is one instruction.
  const std::int64_t buckets = std::isfinite(spread) ? static_cast<std::int64_t>(size / 4 + 1) : 1;
  const double scale = static_cast<double>(buckets) / spread;
  const auto bucket_of = [&](double x) {
    const double t = (x - min) * scale;
    return static_cast<std::size_t>(t < static_cast<double>(buckets - 1)
                                        ? static_cast<std::int64_t>(t)
                                        : buckets - 1);
  };
  // [0, buckets): each bucket's count, later its band; then the indices of
  // the bands' values, band after band.
  std::vector<std::size_t> scratch;
  scratch.assign(static_cast<std::size_t>(buckets), 0);
  for (const double x : values) ++scratch[bucket_of(x)];

  // A band is a bucket that holds an inner rank; ranks walk the buckets in
  // ascending order.
  struct Band {
    std::size_t bucket;
    std::size_t below;  // values in earlier buckets
    std::size_t begin;  // offset of its value indices in scratch
    std::size_t size;
  };
  std::array<std::size_t, kMaxRanks> order;  // ranks[order[o]] ascends in o
  for (std::size_t o = 0; o < ranks.size(); ++o) {
    std::size_t j = o;
    for (; j > 0 && ranks[order[j - 1]] > ranks[o]; --j) order[j] = order[j - 1];
    order[j] = o;
  }
  std::array<Band, kMaxRanks> bands;
  std::array<std::size_t, kMaxRanks> band_of;
  std::size_t n_bands = 0;
  std::size_t bucket = 0;
  std::size_t below = 0;
  std::size_t bands_end = scratch.size();
  for (std::size_t o = 0; o < ranks.size(); ++o) {
    const std::size_t r = ranks[order[o]];
    if (r == 0 || r == size - 1) continue;
    for (; below + scratch[bucket] <= r; ++bucket) below += scratch[bucket];
    if (n_bands == 0 || bands[n_bands - 1].bucket != bucket) {
      bands[n_bands++] = {bucket, below, bands_end, scratch[bucket]};
      bands_end += scratch[bucket];
    }
    band_of[order[o]] = n_bands - 1;
  }
  if (n_bands > 0) {
    // Each bucket's band, or kMaxRanks outside every band.
    std::fill(scratch.begin(), scratch.end(), kMaxRanks);
    std::array<std::size_t, kMaxRanks> cursor;
    for (std::size_t k = 0; k < n_bands; ++k) {
      scratch[bands[k].bucket] = k;
      cursor[k] = bands[k].begin;
    }
    scratch.resize(bands_end);
    for (std::size_t j = 0; j < size; ++j) {
      const std::size_t k = scratch[bucket_of(values[j])];
      if (k != kMaxRanks) scratch[cursor[k]++] = j;
    }
  }
  const auto less = [&](std::size_t a, std::size_t b) { return values[a] < values[b]; };
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (ranks[i] == 0 || ranks[i] == size - 1) {
      out[i] = ranks[i] == 0 ? min : max;
      continue;
    }
    const Band& band = bands[band_of[i]];
    const auto first = scratch.begin() + static_cast<std::ptrdiff_t>(band.begin);
    const auto at = first + static_cast<std::ptrdiff_t>(ranks[i] - band.below);
    std::nth_element(first, at, first + static_cast<std::ptrdiff_t>(band.size), less);
    out[i] = values[*at];
  }
}

/// Sets the percentile ends of `ci` from the resampled statistics: the
/// values a full sort would put at ranks floor(q * (R - 1)) for q = alpha
/// and 1 - alpha.
void set_percentile_ends(const std::vector<double>& stats, BootstrapCI& ci) {
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto rank = [&](double q) {
    return static_cast<std::size_t>(q * static_cast<double>(stats.size() - 1));
  };
  const std::array<std::size_t, 2> ranks{rank(alpha), rank(1.0 - alpha)};
  std::array<double, 2> ends;
  select_ranks(stats, ranks, ends.data());
  ci.lo = ends[0];
  ci.hi = ends[1];
}

constexpr std::size_t kLanes = 8;

/// Resamples each lane draws: ⌈R/8⌉.
std::uint64_t lane_resamples(std::uint64_t resamples) {
  return resamples / kLanes + static_cast<std::uint64_t>(resamples % kLanes != 0);
}

/// x^distance mod P for the lane jump, cached per thread: a cell-sharded
/// sweep finalizes cells concurrently, and one thread sees only a few
/// distances (one per sample size).
Xoshiro256ss::Jump lane_jump(std::uint64_t distance) {
  struct Entry {
    std::uint64_t distance;
    Xoshiro256ss::Jump jump;
  };
  thread_local std::array<Entry, 8> cache{};
  thread_local std::size_t filled = 0;
  for (std::size_t i = 0; i < std::min(filled, cache.size()); ++i) {
    if (cache[i].distance == distance) return cache[i].jump;
  }
  Entry& slot = cache[filled++ % cache.size()];
  slot = {distance, Xoshiro256ss::jump_for(distance)};
  return slot.jump;
}

/// Draws R resamples of n indices into [0, n) exactly as R·n calls of
/// Rng(stream_seed).uniform(n) would, in blocks: `fold(picks, rounds,
/// lanes)` receives picks[lanes·d + l], lane l's d-th index of the block,
/// for d < rounds, with `lanes` a std::integral_constant, and each lane's
/// indices arrive in stream order.  After a resample's n indices,
/// `done(lane, r)` closes resample r of that lane, and must leave the
/// lane's state clear.
///
/// Lane l of eight covers resamples [l·L, (l + 1)·L), L = ⌈R/8⌉, and
/// starts at draw l·L·n of the stream (Xoshiro256ss::jump); the lanes draw
/// in lockstep through simd::draw_lanes, and the last ones may close
/// resamples in [R, 8L), which the caller discards.  A draw the kernel
/// flags is one where uniform could reject and shift every later draw
/// (probability < n/2⁶⁴), so a flag sends the whole stream through one
/// serial lane instead, as does n >= 2³², which the kernel's multiply
/// does not reach.
template <class Fold, class Done>
void resample_stream(std::uint64_t stream_seed, std::size_t n, std::uint64_t resamples,
                     Fold&& fold, Done&& done) {
  constexpr std::size_t kRounds = 256;
  const std::uint64_t per_lane = lane_resamples(resamples);
  std::uint64_t distance = 0;
  if (n < (std::uint64_t{1} << 32) && !__builtin_mul_overflow(per_lane, n, &distance)) {
    std::array<std::uint64_t, 4 * kLanes> state;
    Xoshiro256ss lane(stream_seed);
    const Xoshiro256ss::Jump jump = lane_jump(distance);
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (l > 0) lane.jump(jump);
      for (std::size_t w = 0; w < 4; ++w) state[kLanes * w + l] = lane.state()[w];
    }
    const simd::Kernels& kernels = simd::active();
    std::array<std::uint32_t, kRounds * kLanes> picks;
    bool flagged = false;
    for (std::uint64_t step = 0; step < per_lane && !flagged; ++step) {
      for (std::size_t drawn = 0; drawn < n; drawn += kRounds) {
        const std::size_t rounds = std::min(kRounds, n - drawn);
        flagged |= kernels.draw_lanes(state.data(), n, rounds, picks.data());
        fold(picks.data(), rounds, std::integral_constant<std::size_t, kLanes>{});
      }
      for (std::size_t l = 0; l < kLanes; ++l) done(l, l * per_lane + step);
    }
    if (!flagged) return;
  }
  Rng rng(stream_seed);
  std::array<std::uint64_t, kRounds> picks;
  for (std::uint64_t r = 0; r < resamples; ++r) {
    for (std::size_t drawn = 0; drawn < n; drawn += kRounds) {
      const std::size_t rounds = std::min(kRounds, n - drawn);
      for (std::size_t d = 0; d < rounds; ++d) picks[d] = rng.uniform(n);
      fold(picks.data(), rounds, std::integral_constant<std::size_t, 1>{});
    }
    done(0, r);
  }
}

/// Percentile-bootstrap CIs of the means of K samples of one size on the
/// "BOOT" stream: each resample draws its indices once and sums every
/// sample over them in draw order, so each CI is bit-identical to an
/// of_mean call of its own.
template <std::size_t K>
std::array<BootstrapCI, K> mean_cis(const std::array<const Sample*, K>& samples, double level,
                                    std::uint64_t resamples, std::uint64_t seed) {
  std::array<BootstrapCI, K> cis;
  for (std::size_t k = 0; k < K; ++k) {
    cis[k].level = std::clamp(level, 0.5, 0.999);
    cis[k].mean = samples[k]->mean();
    cis[k].lo = cis[k].hi = cis[k].mean;
  }
  const std::size_t n = samples[0]->size();
  if (n < 2 || resamples == 0) return cis;

  std::array<const double*, K> values;
  std::array<std::vector<double>, K> means;
  for (std::size_t k = 0; k < K; ++k) {
    values[k] = samples[k]->values().data();
    means[k].resize(kLanes * lane_resamples(resamples));
  }
  std::array<std::array<double, kLanes>, K> sums{};
  const auto size = static_cast<double>(n);
  resample_stream(
      hash_words({seed, 0x424f4f54ULL /* "BOOT" */}), n, resamples,
      [&](const auto* picks, std::size_t rounds, auto lanes) {
        // Local sums, which the value loads cannot alias, and lanes
        // interleaved, so that each add waits on its lane's previous one only.
        constexpr std::size_t kWidth = decltype(lanes)::value;
        std::array<std::array<double, kWidth>, K> acc;
        for (std::size_t k = 0; k < K; ++k) std::copy_n(sums[k].begin(), kWidth, acc[k].begin());
        for (std::size_t d = 0; d < rounds; ++d) {
          for (std::size_t l = 0; l < kWidth; ++l) {
            const std::size_t j = picks[kWidth * d + l];
            for (std::size_t k = 0; k < K; ++k) acc[k][l] += values[k][j];
          }
        }
        for (std::size_t k = 0; k < K; ++k) std::copy_n(acc[k].begin(), kWidth, sums[k].begin());
      },
      [&](std::size_t lane, std::uint64_t r) {
        for (std::size_t k = 0; k < K; ++k) {
          means[k][r] = sums[k][lane] / size;
          sums[k][lane] = 0.0;
        }
      });
  for (std::size_t k = 0; k < K; ++k) {
    means[k].resize(resamples);
    set_percentile_ends(means[k], cis[k]);
  }
  return cis;
}

}  // namespace

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Sample::mean() const noexcept {
  if (values_.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc / static_cast<double>(values_.size());
}

double Sample::stddev() const noexcept {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Sample::min() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Sample::max() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

double Sample::quantile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted_quantile(sorted, p);
}

Summary Summary::of(const Sample& s) {
  Summary out;
  out.count = s.size();
  out.mean = s.mean();
  out.stddev = s.stddev();
  if (s.empty()) return out;
  // The values a sort would put at the ends and on both sides of each
  // quantile, selected without the sort.
  const std::size_t n = s.size();
  const QuantileSpot median(n, 0.5), p95(n, 0.95), p99(n, 0.99);
  const std::array<std::size_t, 8> ranks{0,       median.lo, median.hi, p95.lo,
                                         p95.hi, p99.lo,    p99.hi,    n - 1};
  std::array<double, 8> at;
  select_ranks(s.values(), ranks, at.data());
  out.min = at[0];
  out.median = median.at(at[1], at[2]);
  out.p95 = p95.at(at[3], at[4]);
  out.p99 = p99.at(at[5], at[6]);
  out.max = at[7];
  return out;
}

void Log2Histogram::push(std::uint64_t x) {
  const unsigned b = floor_log2(x);
  if (buckets_.size() <= b) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++total_;
}

std::string Log2Histogram::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (!first) os << ' ';
    os << '2' << '^' << b << ':' << buckets_[b];
    first = false;
  }
  return os.str();
}

BootstrapCI BootstrapCI::of_mean(const Sample& sample, double level, std::uint64_t resamples,
                                 std::uint64_t seed) {
  return mean_cis<1>({&sample}, level, resamples, seed)[0];
}

std::pair<BootstrapCI, BootstrapCI> BootstrapCI::of_means(const Sample& a, const Sample& b,
                                                          double level, std::uint64_t resamples,
                                                          std::uint64_t seed) {
  if (a.size() != b.size()) {
    return {of_mean(a, level, resamples, seed), of_mean(b, level, resamples, seed)};
  }
  const auto cis = mean_cis<2>({&a, &b}, level, resamples, seed);
  return {cis[0], cis[1]};
}

BootstrapCI BootstrapCI::of_quantile(const Sample& sample, double p, double level,
                                     std::uint64_t resamples, std::uint64_t seed) {
  BootstrapCI ci;
  ci.level = std::clamp(level, 0.5, 0.999);
  const auto& values = sample.values();
  const std::size_t n = values.size();
  if (n == 0) return ci;

  // Sort once into tie classes: class c holds the c-th smallest distinct
  // value, so a resample's order statistic at rank k is the value of the
  // first class whose running draw count exceeds k.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> sorted(n);
  std::vector<double> classes;
  std::vector<std::size_t> class_of(n);
  for (std::size_t s = 0; s < n; ++s) {
    sorted[s] = values[order[s]];
    if (s == 0 || sorted[s - 1] < sorted[s]) classes.push_back(sorted[s]);
    class_of[order[s]] = classes.size() - 1;
  }
  ci.mean = sorted_quantile(sorted, p);
  ci.lo = ci.hi = ci.mean;
  if (n < 2 || resamples == 0) return ci;

  const QuantileSpot spot(n, p);
  const std::size_t m = classes.size();
  std::vector<std::size_t> counts(kLanes * m);  // lane l's class counts at [l·m, (l + 1)·m)
  std::vector<double> quantiles(kLanes * lane_resamples(resamples));
  // Distinct stream tag from of_mean so the two CIs of one cell draw
  // independent resamples even when seeded identically.
  resample_stream(
      hash_words({seed, 0x51424f4f54ULL /* "QBOOT" */}), n, resamples,
      [&](const auto* picks, std::size_t rounds, auto lanes) {
        // Lanes interleaved, so that a lane's increments land far apart.
        constexpr std::size_t kWidth = decltype(lanes)::value;
        for (std::size_t d = 0; d < rounds; ++d) {
          for (std::size_t l = 0; l < kWidth; ++l) ++counts[l * m + class_of[picks[kWidth * d + l]]];
        }
      },
      [&](std::size_t lane, std::uint64_t r) {
        // The order statistic at rank k is the first class whose running
        // count exceeds k, i.e. the number of classes whose running count
        // does not; one pass over the classes, clearing them.
        std::size_t* const count = counts.data() + lane * m;
        std::size_t seen = 0;
        std::size_t lo_class = 0;
        std::size_t hi_class = 0;
        for (std::size_t c = 0; c < m; ++c) {
          seen += count[c];
          count[c] = 0;
          lo_class += static_cast<std::size_t>(seen <= spot.lo);
          hi_class += static_cast<std::size_t>(seen <= spot.hi);
        }
        quantiles[r] = spot.at(classes[lo_class], classes[hi_class]);
      });
  quantiles.resize(resamples);
  set_percentile_ends(quantiles, ci);
  return ci;
}

LinearFit LinearFit::of(const std::vector<double>& x, const std::vector<double>& y) {
  LinearFit fit;
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace wakeup::util
