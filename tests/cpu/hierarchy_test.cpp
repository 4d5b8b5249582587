#include "cpu/hierarchy.hpp"

#include <gtest/gtest.h>

#include "engine_rig.hpp"

namespace mb::cpu {
namespace {

// A hierarchy over real controllers with a tiny geometry, so DRAM responses
// flow through the full event-driven path.
class HierarchyTest : public EngineRigTest {
 protected:
  void build(int numCores = 8, int coresPerCluster = 4) {
    geom_.channels = 2;
    geom_.ranksPerChannel = 2;
    geom_.banksPerRank = 8;
    geom_.capacityBytes = 8 * kGiB;
    hcfg_.numCores = numCores;
    hcfg_.coresPerCluster = coresPerCluster;
    buildRig();
  }

  /// Synchronous-style access helper: runs the engine until completion.
  Tick access(CoreId core, std::uint64_t addr, bool write) {
    Tick result = -1;
    const auto r = hier_->access(core, addr, write, now(),
                                 [&](Tick when) { result = when; });
    if (r.immediate) return now() + r.latency;
    drain();
    EXPECT_GE(result, 0) << "access never completed";
    return result;
  }
};
using HierarchyDeathTest = HierarchyTest;

TEST_F(HierarchyTest, ColdReadGoesToDram) {
  build();
  access(0, 0x100000, false);
  EXPECT_EQ(hier_->stats().dramReads, 1);
  EXPECT_EQ(hier_->stats().l1Hits, 0);
}

TEST_F(HierarchyTest, SecondReadHitsL1) {
  build();
  access(0, 0x100000, false);
  const auto r = hier_->access(0, 0x100000, false, now(), nullptr);
  EXPECT_TRUE(r.immediate);
  EXPECT_EQ(r.latency, static_cast<Tick>(hcfg_.l1LatCycles) * hcfg_.cyclePs);
  EXPECT_EQ(hier_->stats().l1Hits, 1);
  EXPECT_EQ(hier_->stats().dramReads, 1);
}

TEST_F(HierarchyTest, SiblingCoreHitsSharedL2) {
  build();
  access(0, 0x100000, false);
  const auto r = hier_->access(1, 0x100000, false, now(), nullptr);
  EXPECT_TRUE(r.immediate);  // L2 hit, no DRAM
  EXPECT_EQ(hier_->stats().l2Hits, 1);
  EXPECT_EQ(hier_->stats().dramReads, 1);
}

TEST_F(HierarchyTest, RemoteClusterReadIsCacheToCache) {
  build();
  access(0, 0x100000, false);   // cluster 0 now has the line
  access(4, 0x100000, false);   // core 4 = cluster 1
  EXPECT_EQ(hier_->stats().c2cTransfers, 1);
  EXPECT_EQ(hier_->stats().dramReads, 1);  // served from the sharer
}

TEST_F(HierarchyTest, RemoteDirtyReadWritesBack) {
  build();
  access(0, 0x100000, true);   // cluster 0 holds it Modified
  access(4, 0x100000, false);  // remote read
  EXPECT_EQ(hier_->stats().c2cTransfers, 1);
  EXPECT_EQ(hier_->stats().dramWrites, 1);  // M -> S writeback
}

TEST_F(HierarchyTest, WriteInvalidatesRemoteSharers) {
  build();
  access(0, 0x100000, false);
  access(4, 0x100000, false);  // two clusters share the line
  access(0, 0x100000, true);   // upgrade in cluster 0
  EXPECT_GE(hier_->stats().invalidations, 1);
  // Cluster 1 must re-fetch.
  const auto before = hier_->stats().c2cTransfers;
  access(4, 0x100000, false);
  EXPECT_GT(hier_->stats().c2cTransfers + hier_->stats().dramReads,
            before + 1);  // either path re-acquires the line
}

TEST_F(HierarchyTest, PostedStoreCompletesImmediatelyButFetches) {
  build();
  const auto r = hier_->access(0, 0x200000, true, now(), nullptr);
  EXPECT_TRUE(r.immediate);  // posted
  drain();
  EXPECT_EQ(hier_->stats().dramReads, 1);  // fetch-for-ownership happened
}

TEST_F(HierarchyTest, StoreWithCallbackReportsFillCompletion) {
  build();
  Tick done = -1;
  const auto r =
      hier_->access(0, 0x200000, true, now(), [&](Tick when) { done = when; });
  EXPECT_FALSE(r.immediate);
  drain();
  EXPECT_GT(done, 0);
}

TEST_F(HierarchyTest, ConcurrentMissesToSameLineMerge) {
  build();
  int completions = 0;
  hier_->access(0, 0x300000, false, now(), [&](Tick) { ++completions; });
  hier_->access(1, 0x300000, false, now(), [&](Tick) { ++completions; });
  drain();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(hier_->stats().dramReads, 1);  // one fill serves both (MSHR merge)
}

// A restore checks each in-flight read a snapshot holds against the fill it
// lands in: the missed line, for a core of the missing cluster, until the
// data arrives.
TEST_F(HierarchyTest, AwaitsFillOnlyForAPendingMissOfThatCluster) {
  build();  // eight cores in clusters of four
  int completions = 0;
  hier_->access(0, 0x300000, false, now(), [&](Tick) { ++completions; });
  EXPECT_TRUE(hier_->awaitsFill(0x300000, 0));
  EXPECT_TRUE(hier_->awaitsFill(0x300000, 3));   // same cluster
  EXPECT_FALSE(hier_->awaitsFill(0x300000, 4));  // the other cluster
  EXPECT_FALSE(hier_->awaitsFill(0x300040, 0));  // the next line
  EXPECT_FALSE(hier_->awaitsFill(0x300000, -1));
  EXPECT_FALSE(hier_->awaitsFill(0x300000, 8));  // not a core of the run
  drain();
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(hier_->awaitsFill(0x300000, 0));
}

TEST_F(HierarchyTest, CapacityEvictionWritesDirtyLinesBack) {
  build(1, 1);  // one core, small L1, one 2 MB L2
  // Write far more distinct lines than the L2 holds.
  const std::int64_t lines = (hcfg_.l2Bytes / 64) * 2;
  for (std::int64_t i = 0; i < lines; ++i) {
    hier_->access(0, static_cast<std::uint64_t>(i) * 64, true, now(), nullptr);
    if (i % 1024 == 0) drain();
  }
  drain();
  EXPECT_GT(hier_->stats().dramWrites, lines / 4);
}

TEST_F(HierarchyTest, LatencyOrdering) {
  build();
  // L1 hit < L2 hit < DRAM.
  const Tick dram = access(0, 0x400000, false) - now();
  const auto l1 = hier_->access(0, 0x400000, false, now(), nullptr);
  const auto l2 = hier_->access(1, 0x400000, false, now(), nullptr);
  EXPECT_TRUE(l1.immediate);
  EXPECT_TRUE(l2.immediate);
  EXPECT_LT(l1.latency, l2.latency);
  EXPECT_LT(l2.latency, dram + l2.latency);  // DRAM path took an event round trip
}

TEST_F(HierarchyTest, StatsAccessCountsEverything) {
  build();
  access(0, 0x1000, false);
  access(0, 0x1000, false);
  access(0, 0x2000, true);
  EXPECT_EQ(hier_->stats().accesses, 3);
}

// A miss reaches a controller only through the engine's mailbox; a
// hierarchy nobody wired to an engine must stop at its first one.
TEST_F(HierarchyDeathTest, TimedMissWithoutMailboxAborts) {
  build();
  hier_->setMailbox(nullptr);
  EXPECT_DEATH(hier_->access(0, 0x100000, false, now(), nullptr),
               "timed DRAM access with no engine mailbox wired");
}

TEST(HierarchyConfig, ClusterMath) {
  HierarchyConfig c;
  EXPECT_EQ(c.numClusters(), 16);
  c.numCores = 8;
  c.coresPerCluster = 4;
  EXPECT_EQ(c.numClusters(), 2);
}

}  // namespace
}  // namespace mb::cpu
