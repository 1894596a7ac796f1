#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace wakeup::util {

namespace {

/// Linear-interpolated p-quantile of a sorted, non-empty sample.
double sorted_quantile(const std::vector<double>& sorted, double p) {
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Sets the percentile ends of `ci` from the resampled statistics: the
/// values a full sort would put at ranks floor(q * (R - 1)) for q = alpha
/// and 1 - alpha, found by two selections.
void set_percentile_ends(std::vector<double>& stats, BootstrapCI& ci) {
  const double alpha = (1.0 - ci.level) / 2.0;
  const auto rank = [&](double q) {
    return static_cast<std::size_t>(q * static_cast<double>(stats.size() - 1));
  };
  const std::size_t lo = rank(alpha);
  const std::size_t hi = rank(1.0 - alpha);
  const auto at = [&](std::size_t r) { return stats.begin() + static_cast<std::ptrdiff_t>(r); };
  std::nth_element(stats.begin(), at(lo), stats.end());
  ci.lo = stats[lo];
  // Everything past `lo` is now the upper order statistics, so the second
  // selection only needs that tail.
  if (hi > lo) std::nth_element(at(lo + 1), at(hi), stats.end());
  ci.hi = stats[hi];
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
    means[k].resize(resamples);
  }
  Rng rng(hash_words({seed, 0x424f4f54ULL /* "BOOT" */}));
  const auto size = static_cast<double>(n);
  for (std::uint64_t r = 0; r < resamples; ++r) {
    std::array<double, K> acc{};
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t j = rng.uniform(n);
      for (std::size_t k = 0; k < K; ++k) acc[k] += values[k][j];
    }
    for (std::size_t k = 0; k < K; ++k) means[k][r] = acc[k] / size;
  }
  for (std::size_t k = 0; k < K; ++k) set_percentile_ends(means[k], cis[k]);
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
  std::vector<double> sorted = s.values();
  std::sort(sorted.begin(), sorted.end());
  out.min = sorted.front();
  out.median = sorted_quantile(sorted, 0.5);
  out.p95 = sorted_quantile(sorted, 0.95);
  out.p99 = sorted_quantile(sorted, 0.99);
  out.max = sorted.back();
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

  // Sort once.  rank_of[i] is the sorted position of values[i]; tied values
  // get adjacent positions holding equal values, so any of them reads the
  // same order statistic.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> sorted(n);
  std::vector<std::size_t> rank_of(n);
  for (std::size_t s = 0; s < n; ++s) {
    sorted[s] = values[order[s]];
    rank_of[order[s]] = s;
  }
  ci.mean = sorted_quantile(sorted, p);
  ci.lo = ci.hi = ci.mean;
  if (n < 2 || resamples == 0) return ci;

  // Distinct stream tag from of_mean so the two CIs of one cell draw
  // independent resamples even when seeded identically.
  Rng rng(hash_words({seed, 0x51424f4f54ULL /* "QBOOT" */}));
  const double clamped_p = std::clamp(p, 0.0, 1.0);
  const double pos = clamped_p * static_cast<double>(n - 1);
  const auto lo_rank = static_cast<std::size_t>(pos);
  const std::size_t hi_rank = std::min(lo_rank + 1, n - 1);
  const double frac = pos - static_cast<double>(lo_rank);
  // A resample is its per-position draw counts; its order statistic at
  // rank k is the sorted value at the first position whose running count
  // exceeds k.
  std::vector<std::uint32_t> counts(n);
  std::vector<double> quantiles(resamples);
  for (std::uint64_t r = 0; r < resamples; ++r) {
    for (std::size_t i = 0; i < n; ++i) ++counts[rank_of[rng.uniform(n)]];
    std::size_t s = 0;
    std::uint64_t seen = counts[0];
    while (seen <= lo_rank) seen += counts[++s];
    const double lo_value = sorted[s];
    while (seen <= hi_rank) seen += counts[++s];
    const double hi_value = sorted[s];
    quantiles[r] = lo_value * (1.0 - frac) + hi_value * frac;
    std::fill(counts.begin(), counts.end(), 0U);
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
