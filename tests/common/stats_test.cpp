#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace mb {
namespace {

TEST(Counter, StartsAtZeroAndIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Accumulator, TracksMoments) {
  Accumulator a;
  a.add(1.0);
  a.add(2.0);
  a.add(3.0);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.sum(), 6.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
  EXPECT_NEAR(a.variance(), 2.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, NegativeSamples) {
  Accumulator a;
  a.add(-5.0);
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Histogram, BucketsSamples) {
  Histogram h(10.0, 5);  // [0,10), [10,20), ... [40,50), overflow
  h.add(0.0);
  h.add(9.99);
  h.add(10.0);
  h.add(49.0);
  h.add(1000.0);
  EXPECT_EQ(h.bucketCount(0), 2);
  EXPECT_EQ(h.bucketCount(1), 1);
  EXPECT_EQ(h.bucketCount(4), 1);
  EXPECT_EQ(h.overflowCount(), 1);
  EXPECT_EQ(h.totalCount(), 5);
}

TEST(Histogram, NegativeGoesToFirstBucket) {
  Histogram h(1.0, 4);
  h.add(-3.0);
  EXPECT_EQ(h.bucketCount(0), 1);
}

TEST(Histogram, PercentileIsMonotonic) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_LE(h.percentile(0.5), h.percentile(0.9));
  EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 2.0);
}

TEST(Histogram, PercentileEdgeFractions) {
  Histogram h(1.0, 10);
  h.add(4.5);  // single sample in bucket [4, 5)
  // fraction 0 is the lower edge, not the upper edge of some empty leading
  // bucket; fraction 1 is the upper edge of the last occupied bucket.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 5.0);
  // A tiny fraction still targets the first sample, never "rank 0".
  EXPECT_DOUBLE_EQ(h.percentile(1e-9), 5.0);
}

TEST(Histogram, PercentileEmptyIsZero) {
  Histogram h(1.0, 10);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileSkipsEmptyLeadingBuckets) {
  Histogram h(1.0, 10);
  h.add(7.2);
  h.add(7.8);
  // Every fraction lands in the single occupied bucket [7, 8).
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 8.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
}

TEST(HistogramDeath, PercentileRejectsOutOfRangeFraction) {
  Histogram h(1.0, 10);
  h.add(1.0);
  EXPECT_DEATH((void)h.percentile(-0.1), "check failed");
  EXPECT_DEATH((void)h.percentile(1.1), "check failed");
}

TEST(TimeWeightedLevel, AveragesOverTime) {
  TimeWeightedLevel l;
  l.update(0, 10.0);   // level 10 from t=0
  l.update(100, 0.0);  // level 0 from t=100
  // Average over [0, 200]: (10*100 + 0*100) / 200 = 5.
  EXPECT_DOUBLE_EQ(l.average(200), 5.0);
  EXPECT_DOUBLE_EQ(l.current(), 0.0);
}

TEST(TimeWeightedLevel, ConstantLevel) {
  TimeWeightedLevel l;
  l.update(0, 3.0);
  EXPECT_DOUBLE_EQ(l.average(50), 3.0);
}

TEST(TimeWeightedLevel, ZeroLengthWindowIsZero) {
  // A zero-length run has no time to average over: report 0, not the
  // instantaneous level and never NaN/inf from the zero divisor — this is
  // what keeps energy integration of an empty run finite.
  TimeWeightedLevel l;
  EXPECT_DOUBLE_EQ(l.average(0), 0.0);
  l.update(0, 7.0);  // now == lastTick_ == 0 after an update
  EXPECT_DOUBLE_EQ(l.average(0), 0.0);
  EXPECT_DOUBLE_EQ(l.current(), 7.0);
  EXPECT_DOUBLE_EQ(l.average(10), 7.0);  // a real window still averages
}

// ---------------------------------------------------------------------------
// Shard-order regression tests: per-channel stats reduced into
// the report must not depend on the order worker threads finish. The
// production reduction (runSimulation's collect loop, Histogram::merge
// callers) walks channels in index order; these tests pin the pieces that
// make that sufficient — and demonstrate why completion order would not be.

// The mandated reduction: merge per-channel histograms in channel-index
// order. The order shards COMPLETED (arrival) must be irrelevant because
// the reducer never consults it.
TEST(StatsOrder, HistogramMergeInChannelIndexOrderIsArrivalInvariant) {
  const double samples[4] = {0.1, 0.2, 0.3, 0.7};
  auto buildAndReduce = [&](const std::vector<int>& completionOrder) {
    std::vector<Histogram> perChannel(4, Histogram(0.25, 4));
    // Shards finish in an arbitrary order...
    for (const int ch : completionOrder)
      perChannel[static_cast<std::size_t>(ch)].add(samples[ch]);
    // ...but the reduction always walks channel 0..N-1.
    Histogram total(0.25, 4);
    for (const auto& h : perChannel) total.merge(h);
    return total;
  };
  const Histogram a = buildAndReduce({0, 1, 2, 3});
  const Histogram b = buildAndReduce({3, 1, 0, 2});
  const Histogram c = buildAndReduce({2, 3, 1, 0});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
            std::bit_cast<std::uint64_t>(b.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
            std::bit_cast<std::uint64_t>(c.mean()));
  EXPECT_EQ(a.totalCount(), b.totalCount());
  for (int i = 0; i <= a.numBuckets(); ++i)
    EXPECT_EQ(a.bucketCount(i), b.bucketCount(i)) << "bucket " << i;
}

// Why the mandate exists: FP addition is non-associative, so merging the
// SAME histograms in completion order genuinely flips result bits. This is
// the failure mode the index-order contract closes — if this test ever
// starts failing, double addition became associative and the comments are
// stale, not wrong.
TEST(StatsOrder, CompletionOrderMergeWouldFlipBits) {
  // Classic: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in binary64.
  Histogram h0(1.0, 2), h1(1.0, 2), h2(1.0, 2);
  h0.add(0.1);
  h1.add(0.2);
  h2.add(0.3);
  Histogram indexOrder(1.0, 2);
  indexOrder.merge(h0);
  indexOrder.merge(h1);
  indexOrder.merge(h2);
  Histogram completionOrder(1.0, 2);
  completionOrder.merge(h1);  // shard 1 finished first this time
  completionOrder.merge(h2);
  completionOrder.merge(h0);
  EXPECT_NE(std::bit_cast<std::uint64_t>(indexOrder.mean()),
            std::bit_cast<std::uint64_t>(completionOrder.mean()));
}

TEST(StatsOrder, HistogramMergeRejectsMismatchedGeometry) {
  ScopedCheckTrap trap;
  Histogram a(1.0, 4), b(2.0, 4);
  try {
    a.merge(b);
    FAIL() << "geometry mismatch accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("mismatched geometry"), std::string::npos);
  }
}

}  // namespace
}  // namespace mb
