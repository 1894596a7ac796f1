#pragma once

/// \file stats.hpp
/// Streaming and batch statistics used by the experiment harness.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace wakeup::util {

/// Welford single-pass mean/variance accumulator.
class OnlineStats {
 public:
  void push(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Batch sample container with quantiles; keeps all observations.
class Sample {
 public:
  void push(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  /// Linear-interpolated quantile, p in [0,1]. Empty sample yields 0.
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Fixed summary of a sample, convenient for table rows.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  [[nodiscard]] static Summary of(const Sample& s);
};

/// Power-of-two bucketed histogram (bucket b counts values in [2^b, 2^{b+1})).
class Log2Histogram {
 public:
  void push(std::uint64_t x);
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Render as "b:count" pairs, skipping empty buckets.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
};

/// Ordinary least squares fit y = a + b*x; used by the harness to check
/// that measured cost scales linearly with the theory bound.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;

  [[nodiscard]] static LinearFit of(const std::vector<double>& x, const std::vector<double>& y);
};

/// Percentile bootstrap confidence interval for the mean of a sample.
///
/// Resample r of R is n draws of Rng::uniform(n) on one seeded stream, taken
/// in stream order.  The draws run in eight lanes: lane l takes resamples
/// [l·⌈R/8⌉, (l + 1)·⌈R/8⌉) from its own exact jump into the stream
/// (Xoshiro256ss::jump), and util::simd's `resampled_means` and
/// `resampled_quantile` draw each lane's resamples and fold them into
/// their statistics as they go, so every CI is bit-identical to one serial
/// pass on every kernel table.  A draw where uniform could reject sends
/// the CI through that serial pass instead.  The percentile ends are the
/// order statistics at ranks floor(q·(R − 1)), q = (1 − level)/2 and 1 − q.
struct BootstrapCI {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double level = 0.95;

  /// Resamples `resamples` times with replacement on the "BOOT" stream of
  /// `seed`; each resampled mean adds its draws in stream order and divides
  /// by n.  Degenerate samples (size < 2) return [mean, mean].
  [[nodiscard]] static BootstrapCI of_mean(const Sample& sample, double level,
                                           std::uint64_t resamples, std::uint64_t seed);

  /// {of_mean(a, ...), of_mean(b, ...)}, bit for bit.  When the samples
  /// have one size the two calls would draw the same resample indices, so
  /// they share one pass, each lane summing both samples per draw.
  [[nodiscard]] static std::pair<BootstrapCI, BootstrapCI> of_means(const Sample& a,
                                                                    const Sample& b, double level,
                                                                    std::uint64_t resamples,
                                                                    std::uint64_t seed);

  /// Same percentile bootstrap for the p-quantile of a sample, on the
  /// "QBOOT" stream (`mean` holds the point estimate, i.e.
  /// sample.quantile(p)).  Each resample counts its draws per tie class
  /// (equal values share a class) and reads its order statistics off the
  /// running counts.  The cell collector (sim/cell_trials.hpp) uses p = 0.5
  /// for median CIs alongside the mean CIs.
  [[nodiscard]] static BootstrapCI of_quantile(const Sample& sample, double p, double level,
                                               std::uint64_t resamples, std::uint64_t seed);
};

}  // namespace wakeup::util
