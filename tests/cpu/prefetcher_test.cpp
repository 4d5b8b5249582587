#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "cpu/hierarchy.hpp"
#include "engine_rig.hpp"

namespace mb::cpu {
namespace {

class PrefetcherTest : public EngineRigTest {
 protected:
  void build(bool enable = true, int degree = 4) {
    geom_.channels = 1;
    geom_.ranksPerChannel = 2;
    geom_.banksPerRank = 8;
    geom_.capacityBytes = 4 * kGiB;
    hcfg_.numCores = 4;
    hcfg_.coresPerCluster = 4;
    hcfg_.enablePrefetch = enable;
    hcfg_.prefetchDegree = degree;
    buildRig();
  }

  void touch(CoreId core, std::uint64_t addr) {
    hier_->access(core, addr, false, now(), [](Tick) {});
    drain();
  }
};

TEST_F(PrefetcherTest, UnitStrideStreamTriggersPrefetch) {
  build();
  // Three sequential misses: the third confirms the stride twice.
  touch(0, 0 * 64);
  touch(0, 1 * 64);
  touch(0, 2 * 64);
  EXPECT_GT(hier_->stats().prefetchIssued, 0);
}

TEST_F(PrefetcherTest, PrefetchedLinesBecomeDemandHits) {
  build();
  for (std::uint64_t i = 0; i < 32; ++i) touch(0, i * 64);
  const auto& s = hier_->stats();
  EXPECT_GT(s.prefetchUseful, 8);
  // Demand misses stop once the prefetcher runs ahead: total DRAM reads
  // stay close to the line count (each line fetched once).
  EXPECT_LE(s.dramReads, 32 + s.prefetchIssued);
}

TEST_F(PrefetcherTest, DisabledPrefetcherIssuesNothing) {
  build(/*enable=*/false);
  for (std::uint64_t i = 0; i < 16; ++i) touch(0, i * 64);
  EXPECT_EQ(hier_->stats().prefetchIssued, 0);
}

TEST_F(PrefetcherTest, NonUnitStrideIsDetected) {
  build();
  for (std::uint64_t i = 0; i < 8; ++i) touch(1, i * 4 * 64);  // stride 4 lines
  EXPECT_GT(hier_->stats().prefetchIssued, 0);
}

TEST_F(PrefetcherTest, HugeStridesAreIgnored) {
  build();
  // Jumps far beyond prefetchMaxStrideLines look like new streams.
  for (std::uint64_t i = 0; i < 8; ++i) touch(1, i * 4096 * 64);
  EXPECT_EQ(hier_->stats().prefetchIssued, 0);
}

TEST_F(PrefetcherTest, RandomAccessesDoNotTrigger) {
  build();
  Rng rng(7);
  for (int i = 0; i < 64; ++i)
    touch(2, (rng.nextU64() % (1ull << 28)) & ~63ull);
  // A few coincidental near-strides may fire, but not a stream's worth.
  EXPECT_LT(hier_->stats().prefetchIssued, 16);
}

TEST_F(PrefetcherTest, PrefetchFillsL2NotL1) {
  build();
  touch(0, 0 * 64);
  touch(0, 1 * 64);
  touch(0, 2 * 64);  // prefetches 3, 4, ... into the L2
  ASSERT_GT(hier_->stats().prefetchIssued, 0);
  // A sibling core's access to the prefetched line is an L2 hit.
  const auto before = hier_->stats().dramReads;
  const auto r = hier_->access(1, 3 * 64, false, now(), nullptr);
  EXPECT_TRUE(r.immediate);
  EXPECT_EQ(hier_->stats().dramReads, before);
}

TEST_F(PrefetcherTest, DemandJoiningInFlightPrefetchCountsUseful) {
  build();
  touch(0, 0 * 64);
  touch(0, 1 * 64);
  // This access triggers prefetches of lines 3..6; immediately demand line 3
  // before its fill returns.
  hier_->access(0, 2 * 64, false, now(), [](Tick) {});
  Tick done = -1;
  const auto r = hier_->access(0, 3 * 64, false, now(),
                               [&](Tick when) { done = when; });
  drain();
  EXPECT_FALSE(r.immediate);
  EXPECT_GE(done, 0);
  EXPECT_GT(hier_->stats().prefetchUseful, 0);
}

TEST_F(PrefetcherTest, StreamsTrackedPerCore) {
  build();
  // Core 0 streams; core 1 random. Only core 0's pattern should prefetch.
  for (std::uint64_t i = 0; i < 6; ++i) touch(0, i * 64);
  const auto afterStream = hier_->stats().prefetchIssued;
  EXPECT_GT(afterStream, 0);
  Rng rng(9);
  for (int i = 0; i < 20; ++i) touch(1, (rng.nextU64() % (1ull << 28)) & ~63ull);
  EXPECT_LT(hier_->stats().prefetchIssued - afterStream, 8);
}

TEST_F(PrefetcherTest, DegreeControlsAggressiveness) {
  build(true, /*degree=*/1);
  for (std::uint64_t i = 0; i < 16; ++i) touch(0, i * 64);
  const auto low = hier_->stats().prefetchIssued;

  build(true, /*degree=*/8);
  for (std::uint64_t i = 0; i < 16; ++i) touch(0, i * 64);
  EXPECT_GT(hier_->stats().prefetchIssued, low);
}

}  // namespace
}  // namespace mb::cpu
