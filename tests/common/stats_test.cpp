#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace polymem {
namespace {

TEST(RunningStats, EmptyIsNeutral) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownSeries) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic population-stddev example
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) { a.add(i); all.add(i); }
  for (int i = 10; i < 25; ++i) { b.add(i * 0.5); all.add(i * 0.5); }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 1.0);
}

TEST(CacheCounters, HitRate) {
  CacheCounters c;
  EXPECT_EQ(c.hit_rate(), 0.0);  // no accesses yet: neutral, not NaN
  c.hits = 3;
  c.misses = 1;
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.75);
}

TEST(CacheCounters, Accumulate) {
  CacheCounters a{.hits = 1,
                  .misses = 2,
                  .evictions = 3,
                  .writebacks = 4,
                  .prefetch_issued = 5,
                  .prefetch_useful = 6,
                  .prefetch_dropped = 7};
  CacheCounters b = a;
  a += b;
  EXPECT_EQ(a.hits, 2u);
  EXPECT_EQ(a.misses, 4u);
  EXPECT_EQ(a.evictions, 6u);
  EXPECT_EQ(a.writebacks, 8u);
  EXPECT_EQ(a.prefetch_issued, 10u);
  EXPECT_EQ(a.prefetch_useful, 12u);
  EXPECT_EQ(a.prefetch_dropped, 14u);
  EXPECT_EQ(b, b);
}

TEST(Reservoir, ExactPercentilesBelowCapacity) {
  Reservoir r(256);
  // 0..99 inserted in a scrambled order: percentiles are exact.
  for (int k = 0; k < 100; ++k) r.add((k * 37) % 100);
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.size(), 100u);
  EXPECT_DOUBLE_EQ(r.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(r.percentile(100), 99.0);
  EXPECT_NEAR(r.percentile(50), 49.5, 1e-12);
  EXPECT_NEAR(r.percentile(95), 94.05, 1e-12);  // 0.95 * 99
  EXPECT_NEAR(r.percentile(99), 98.01, 1e-12);  // 0.99 * 99
  const auto s = r.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 99.0);
  EXPECT_NEAR(s.p50, 49.5, 1e-12);
  EXPECT_NEAR(s.p95, 94.05, 1e-12);
  EXPECT_NEAR(s.p99, 98.01, 1e-12);
}

TEST(Reservoir, EmptyYieldsNaN) {
  Reservoir r(16);
  EXPECT_TRUE(std::isnan(r.percentile(50)));
  EXPECT_EQ(r.summary().count, 0u);
}

TEST(Reservoir, RequiresValidArguments) {
  EXPECT_THROW(Reservoir(0), InvalidArgument);
  Reservoir r(4);
  r.add(1.0);
  EXPECT_THROW(r.percentile(-1), InvalidArgument);
  EXPECT_THROW(r.percentile(101), InvalidArgument);
}

TEST(Reservoir, SamplingKeepsCapacityAndApproximatesTheDistribution) {
  // 100k uniform values into 512 slots: the retained set stays at
  // capacity and the median lands near the true median.
  Reservoir r(512, /*seed=*/7);
  for (int k = 0; k < 100'000; ++k) r.add(k % 1000);
  EXPECT_EQ(r.count(), 100'000u);
  EXPECT_EQ(r.size(), 512u);
  EXPECT_NEAR(r.percentile(50), 500.0, 100.0);
  EXPECT_GE(r.percentile(99), r.percentile(50));
}

TEST(Reservoir, DeterministicForSameSeed) {
  auto run = [] {
    Reservoir r(64, 42);
    for (int k = 0; k < 5000; ++k) r.add(k * 13 % 977);
    return r.summary();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
}

TEST(ErrorMetrics, Pearson) {
  // Perfect positive and negative correlation.
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
  // Constant series degenerate to 0.
  EXPECT_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

}  // namespace
}  // namespace polymem
