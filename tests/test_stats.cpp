#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"

namespace wu = wakeup::util;

TEST(OnlineStats, EmptyIsZero) {
  wu::OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  wu::OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesCombinedStream) {
  wu::OnlineStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i) * 10.0;
    all.push(v);
    (i % 2 == 0 ? a : b).push(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  wu::OnlineStats a, b;
  a.push(1.0);
  a.push(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Sample, QuantilesOfKnownData) {
  wu::Sample s;
  for (int i = 1; i <= 100; ++i) s.push(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.95), 95.05, 1e-9);
}

TEST(Sample, QuantileClampsP) {
  wu::Sample s;
  s.push(5.0);
  EXPECT_DOUBLE_EQ(s.quantile(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(2.0), 5.0);
}

TEST(Sample, EmptySampleSafe) {
  wu::Sample s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Sample, StddevMatchesOnline) {
  wu::Sample s;
  wu::OnlineStats o;
  for (int i = 0; i < 50; ++i) {
    const double v = (i * 37) % 11;
    s.push(v);
    o.push(v);
  }
  EXPECT_NEAR(s.stddev(), o.stddev(), 1e-9);
}

TEST(Summary, OfSample) {
  wu::Sample s;
  for (double v : {3.0, 1.0, 2.0}) s.push(v);
  const auto sum = wu::Summary::of(s);
  EXPECT_EQ(sum.count, 3u);
  EXPECT_DOUBLE_EQ(sum.mean, 2.0);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 3.0);
  EXPECT_DOUBLE_EQ(sum.median, 2.0);
}

TEST(Summary, P99TailOfKnownData) {
  wu::Sample s;
  for (int i = 1; i <= 100; ++i) s.push(i);
  const auto sum = wu::Summary::of(s);
  EXPECT_NEAR(sum.p95, 95.05, 1e-9);
  EXPECT_NEAR(sum.p99, 99.01, 1e-9);  // linear interpolation at rank 0.99*(n-1)
  EXPECT_GE(sum.p99, sum.p95);
  EXPECT_LE(sum.p99, sum.max);
}

TEST(Summary, P99EdgeCases) {
  // n = 0: every field (p99 included) stays zero.
  const auto empty = wu::Summary::of(wu::Sample{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);

  // n = 1: all quantiles collapse onto the single observation.
  wu::Sample one;
  one.push(42.0);
  const auto single = wu::Summary::of(one);
  EXPECT_DOUBLE_EQ(single.median, 42.0);
  EXPECT_DOUBLE_EQ(single.p95, 42.0);
  EXPECT_DOUBLE_EQ(single.p99, 42.0);

  // Ties: a constant sample keeps every quantile at the tied value.
  wu::Sample ties;
  for (int i = 0; i < 10; ++i) ties.push(7.0);
  const auto tied = wu::Summary::of(ties);
  EXPECT_DOUBLE_EQ(tied.p99, 7.0);
  EXPECT_DOUBLE_EQ(tied.min, 7.0);
  EXPECT_DOUBLE_EQ(tied.max, 7.0);
}

namespace {

/// Naive reference: three Sample::quantile calls, each sorting its own copy.
wu::Summary naive_summary(const wu::Sample& s) {
  wu::Summary out;
  out.count = s.size();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.median = s.median();
  out.p95 = s.quantile(0.95);
  out.p99 = s.quantile(0.99);
  out.max = s.max();
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

TEST(Summary, SortOnceMatchesTheNaiveReferenceBitForBit) {
  // The empty sample first: every field stays zero.
  const auto empty = wu::Summary::of(wu::Sample{});
  EXPECT_EQ(empty.count, 0u);
  for (const double field : {empty.mean, empty.stddev, empty.min, empty.median, empty.p95,
                             empty.p99, empty.max}) {
    EXPECT_EQ(bits(field), bits(0.0));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::size_t n : {0, 1, 2, 3, 32, 48, 257, 1000, 9334}) {
    wu::Rng rng(n);
    wu::Rng latency_rng(~n);
    // tied: five values; real: spread reals; latency: integers 1–2048
    // piled on the small ones, as pooled queue latencies are; infinite:
    // reals with ±inf among them.
    wu::Sample tied, real, latency, infinite;
    for (std::size_t i = 0; i < n; ++i) {
      tied.push(static_cast<double>(3 + rng.uniform(5)));
      real.push((rng.uniform01() - 0.4) * 1e3 + 0.125);
      latency.push(static_cast<double>(1 + latency_rng.uniform(1 + latency_rng.uniform(2048))));
      infinite.push(i % 7 == 1 ? kInf : i % 11 == 2 ? -kInf : real.values().back());
    }
    for (const wu::Sample& s : {tied, real, latency, infinite}) {
      SCOPED_TRACE(testing::Message() << "n=" << n);
      const auto got = wu::Summary::of(s);
      const auto want = naive_summary(s);
      EXPECT_EQ(got.count, want.count);
      EXPECT_EQ(bits(got.mean), bits(want.mean));
      EXPECT_EQ(bits(got.stddev), bits(want.stddev));
      EXPECT_EQ(bits(got.min), bits(want.min));
      EXPECT_EQ(bits(got.median), bits(want.median));
      EXPECT_EQ(bits(got.p95), bits(want.p95));
      EXPECT_EQ(bits(got.p99), bits(want.p99));
      EXPECT_EQ(bits(got.max), bits(want.max));
    }
  }
}

TEST(Log2Histogram, Buckets) {
  wu::Log2Histogram h;
  h.push(1);   // bucket 0
  h.push(2);   // bucket 1
  h.push(3);   // bucket 1
  h.push(4);   // bucket 2
  h.push(100); // bucket 6
  EXPECT_EQ(h.total(), 5u);
  ASSERT_GE(h.buckets().size(), 7u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[6], 1u);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(LinearFit, ExactLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto fit = wu::LinearFit::of(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LinearFit, DegenerateInputs) {
  const auto fit = wu::LinearFit::of({1.0}, {2.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  const auto flat = wu::LinearFit::of({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(flat.slope, 0.0);  // zero x-variance guarded
}

TEST(LinearFit, NoisyLineHighR2) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(5.0 * i + ((i % 3) - 1));  // tiny structured noise
  }
  const auto fit = wu::LinearFit::of(x, y);
  EXPECT_NEAR(fit.slope, 5.0, 0.01);
  EXPECT_GT(fit.r2, 0.999);
}
