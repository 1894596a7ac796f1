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
/// Rng(stream_seed).uniform(n) would.  Lane l of eight covers resamples
/// [l·L, (l + 1)·L), L = ⌈R/8⌉, and starts at draw l·L·n of the stream
/// (Xoshiro256ss::jump); `lanes(state, L)` draws and folds them from the
/// eight states with a simd::Kernels bootstrap entry, writing resample
/// l·L + s at [l·L + s] (the last lanes may close resamples in [R, 8L),
/// which the caller discards), and returns the entry's flag.  A flagged
/// draw is one where uniform could reject and shift every later draw
/// (probability < n/2⁶⁴), so a flag sends the whole stream through
/// `serial(rng)` instead, which draws resample r at [r] from one Rng, as
/// does n >= 2³², which the entries' multiply does not reach.
template <class Lanes, class Serial>
void resample_stream(std::uint64_t stream_seed, std::size_t n, std::uint64_t resamples,
                     Lanes&& lanes, Serial&& serial) {
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
    if (!lanes(state.data(), per_lane)) return;
  }
  Rng rng(stream_seed);
  serial(rng);
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
  std::array<double*, K> out;
  for (std::size_t k = 0; k < K; ++k) {
    values[k] = samples[k]->values().data();
    means[k].resize(kLanes * lane_resamples(resamples));
    out[k] = means[k].data();
  }
  const auto size = static_cast<double>(n);
  resample_stream(
      hash_words({seed, 0x424f4f54ULL /* "BOOT" */}), n, resamples,
      [&](std::uint64_t* state, std::uint64_t steps) {
        return simd::active().resampled_means(state, values.data(), K, n, steps, out.data());
      },
      [&](Rng& rng) {
        for (std::uint64_t r = 0; r < resamples; ++r) {
          std::array<double, K> sum{};
          for (std::size_t d = 0; d < n; ++d) {
            const std::size_t j = rng.uniform(n);
            for (std::size_t k = 0; k < K; ++k) sum[k] += values[k][j];
          }
          for (std::size_t k = 0; k < K; ++k) means[k][r] = sum[k] / size;
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
  // Each resample's order statistics at ranks spot.lo and spot.hi, as
  // classes.
  std::vector<std::size_t> lo_class(kLanes * lane_resamples(resamples));
  std::vector<std::size_t> hi_class(lo_class.size());
  // Distinct stream tag from of_mean so the two CIs of one cell draw
  // independent resamples even when seeded identically.
  resample_stream(
      hash_words({seed, 0x51424f4f54ULL /* "QBOOT" */}), n, resamples,
      [&](std::uint64_t* state, std::uint64_t steps) {
        return simd::active().resampled_quantile(state, class_of.data(), m, n, spot.lo, spot.hi,
                                                 steps, lo_class.data(), hi_class.data());
      },
      [&](Rng& rng) {
        // The order statistic at rank k is the first class whose running
        // count exceeds k, i.e. the number of classes whose running count
        // does not.
        std::vector<std::size_t> count(m);
        for (std::uint64_t r = 0; r < resamples; ++r) {
          for (std::size_t d = 0; d < n; ++d) ++count[class_of[rng.uniform(n)]];
          std::size_t seen = 0;
          lo_class[r] = hi_class[r] = 0;
          for (std::size_t c = 0; c < m; ++c) {
            seen += count[c];
            count[c] = 0;
            lo_class[r] += static_cast<std::size_t>(seen <= spot.lo);
            hi_class[r] += static_cast<std::size_t>(seen <= spot.hi);
          }
        }
      });
  std::vector<double> quantiles(resamples);
  for (std::uint64_t r = 0; r < resamples; ++r) {
    quantiles[r] = spot.at(classes[lo_class[r]], classes[hi_class[r]]);
  }
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
