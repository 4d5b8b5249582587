#include "common/rng.hpp"

#include <gtest/gtest.h>

#include "sim/sweep.hpp"

#include <cmath>
#include <set>
#include <vector>

namespace mb {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, IsDeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.nextBounded(17), 17u);
    EXPECT_LT(rng.nextBounded(1), 1u);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.nextRange(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanIsHalf) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.nextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BoolRespectsProbability) {
  Rng rng(13);
  int trues = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) trues += rng.nextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(trues) / kN, 0.3, 0.01);
}

TEST(Rng, BoolEdgeProbabilities) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
  }
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(19);
  const double p = 0.1;  // mean failures = (1-p)/p = 9
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.nextGeometric(p));
  EXPECT_NEAR(sum / kN, 9.0, 0.3);
}

TEST(Rng, GeometricWithCertainSuccessIsZero) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.nextGeometric(1.0), 0);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.nextExponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  // The child stream should not replicate the parent stream.
  bool anyDifferent = false;
  Rng parent2(31);
  (void)parent2.nextU64();  // same position as parent after fork
  for (int i = 0; i < 10; ++i) {
    if (child.nextU64() != parent2.nextU64()) anyDifferent = true;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(37);
  constexpr int kBuckets = 10;
  constexpr int kN = 200000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kN; ++i) ++counts[rng.nextBounded(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]) / kN, 0.1, 0.01);
  }
}

TEST(ZipfSampler, StaysInRange) {
  Rng rng(41);
  ZipfSampler zipf(1000, 0.9);
  for (int i = 0; i < 10000; ++i) {
    const auto v = zipf.sample(rng);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
  }
}

TEST(ZipfSampler, IsSkewedTowardLowRanks) {
  Rng rng(43);
  ZipfSampler zipf(10000, 0.99);
  int lowRank = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (zipf.sample(rng) < 100) ++lowRank;
  }
  // Under uniform sampling the first 1% would get ~1% of the draws; a 0.99
  // Zipf concentrates far more there.
  EXPECT_GT(static_cast<double>(lowRank) / kN, 0.3);
}

TEST(SeedFolding, SweepGridStreamsAreIndependent) {
  // A reseeded 5x5 sweep grid seeds each point as foldPointSeed(base, index)
  // at plan time, and sweeps over nearby base seeds share one result cache:
  // no two folds across the grid — for either of two nearby base seeds — may
  // collide, or two sweep points would replay identical workload noise.
  constexpr std::uint64_t kBases[2] = {0x9a3ec94bcull, 0x9a3ec94bdull};
  std::set<std::uint64_t> seen;
  for (const std::uint64_t base : kBases) {
    for (std::size_t index = 0; index < 25; ++index) {
      const std::uint64_t folded = sim::foldPointSeed(base, index);
      EXPECT_TRUE(seen.insert(folded).second)
          << "collision at base=" << base << " index=" << index;
      // And the fold must not degenerate to the inputs themselves.
      EXPECT_NE(folded, base);
      EXPECT_NE(folded, index);
    }
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(SeedFolding, FoldedStreamsProduceDisjointDrawSequences) {
  // Beyond distinct seeds: the first draws of neighbouring point streams
  // must already disagree, so workload synthesis diverges immediately.
  Rng a(sim::foldPointSeed(42, 0));
  Rng b(sim::foldPointSeed(42, 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.nextU64() == b.nextU64()) ++equal;
  EXPECT_EQ(equal, 0);
}

}  // namespace
}  // namespace mb
