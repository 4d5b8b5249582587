#include "mc/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"

namespace mb::mc {
namespace {

dram::Geometry testGeometry(int nW = 1, int nB = 1) {
  dram::Geometry g;
  g.channels = 1;
  g.ranksPerChannel = 2;
  g.banksPerRank = 8;
  g.ubank = {nW, nB};
  g.capacityBytes = 4 * kGiB;
  return g;
}

class ControllerTest : public ::testing::Test {
 protected:
  void build(int nW = 1, int nB = 1,
             core::PolicyKind policy = core::PolicyKind::Open,
             SchedulerKind sched = SchedulerKind::ParBs, int iB = -1) {
    geom_ = testGeometry(nW, nB);
    map_.emplace(iB < 0 ? core::AddressMap::pageInterleaved(geom_)
                        : core::AddressMap(geom_, iB));
    ControllerConfig cfg;
    cfg.pagePolicy = policy;
    cfg.scheduler = sched;
    cfg.enableTimingCheck = true;
    cfg.refreshEnabled = false;
    mc_.emplace(0, geom_, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
                *map_, cfg, eq_);
  }

  /// Enqueue a read; returns the index of its completion slot in done_.
  size_t read(std::uint64_t addr, ThreadId thread = 0) {
    MemRequest r;
    r.addr = addr;
    r.thread = thread;
    const size_t idx = done_.size();
    done_.push_back(-1);
    r.onComplete = [this, idx](Tick when) { done_[idx] = when; };
    mc_->enqueue(std::move(r));
    return idx;
  }

  void write(std::uint64_t addr, ThreadId thread = 0) {
    MemRequest r;
    r.addr = addr;
    r.write = true;
    r.thread = thread;
    mc_->enqueue(std::move(r));
  }

  /// Address of (row, column) within channel 0, bank 0, μbank 0, rank 0.
  std::uint64_t rowAddr(std::int64_t row, std::int64_t col = 0) {
    core::DramAddress da;
    da.row = row;
    da.column = col;
    return map_->compose(da);
  }

  EventQueue eq_;
  dram::Geometry geom_;
  std::optional<core::AddressMap> map_;
  std::optional<MemoryController> mc_;
  std::vector<Tick> done_;
};

TEST_F(ControllerTest, SingleReadCompletesWithMissLatency) {
  build();
  const auto t = dram::TimingParams::tsi();
  const size_t r = read(rowAddr(1));
  eq_.run();
  // Empty bank: ACT + tRCD + CAS + tAA + tBURST.
  EXPECT_EQ(done_[r], t.tRCD + t.tAA + t.tBURST);
  const auto s = mc_->stats();
  EXPECT_EQ(s.reads, 1);
  EXPECT_EQ(s.rowMisses, 1);
  EXPECT_EQ(s.rowHits, 0);
}

TEST_F(ControllerTest, SecondReadSameRowIsRowHit) {
  build();
  read(rowAddr(1, 0));
  eq_.run();
  read(rowAddr(1, 5));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.rowHits, 1);
  EXPECT_EQ(s.rowMisses, 1);
}

TEST_F(ControllerTest, ConflictRequiresPrecharge) {
  build();
  read(rowAddr(1));
  eq_.run();
  const size_t r = read(rowAddr(2));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.rowConflicts, 1);
  // Conflict latency is at least tRP + tRCD + tAA + tBURST after arrival,
  // and the PRE itself had to wait for tRAS from the first activate.
  EXPECT_GT(done_[r], dram::TimingParams::tsi().conflictLatency());
}

TEST_F(ControllerTest, ClosePolicyTurnsConflictIntoMiss) {
  build(1, 1, core::PolicyKind::Close);
  read(rowAddr(1));
  eq_.run();
  // Let the idle precharge happen, then access another row.
  eq_.runUntil(eq_.now() + us(1));
  read(rowAddr(2));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.rowConflicts, 0);
  EXPECT_EQ(s.rowMisses, 2);
}

TEST_F(ControllerTest, OpenPolicyKeepsRowForLateHit) {
  build(1, 1, core::PolicyKind::Open);
  read(rowAddr(1, 0));
  eq_.run();
  eq_.runUntil(eq_.now() + us(1));
  read(rowAddr(1, 9));
  eq_.run();
  EXPECT_EQ(mc_->stats().rowHits, 1);
}

TEST_F(ControllerTest, PerfectPolicyMatchesBestStaticEitherWay) {
  // Hit case: behaves like open.
  build(1, 1, core::PolicyKind::Perfect);
  read(rowAddr(1, 0));
  eq_.run();
  eq_.runUntil(eq_.now() + us(1));
  const size_t hit = read(rowAddr(1, 3));
  eq_.run();
  EXPECT_EQ(mc_->stats().rowHits, 1);
  const Tick hitLatency = done_[hit];
  EXPECT_GT(hitLatency, 0);

  // Conflict case: behaves like close (counts as a miss, not a conflict).
  build(1, 1, core::PolicyKind::Perfect);
  done_.clear();
  read(rowAddr(1));
  eq_.run();
  eq_.runUntil(eq_.now() + us(1));
  read(rowAddr(2));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.rowConflicts, 0);
  EXPECT_EQ(s.rowMisses, 2);
}

TEST_F(ControllerTest, SpeculationStatsTrackOutcomes) {
  build(1, 1, core::PolicyKind::Open);
  read(rowAddr(1, 0));
  eq_.run();
  read(rowAddr(1, 1));  // same row: "open" was right
  eq_.run();
  read(rowAddr(2, 0));  // different row: "open" was wrong
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.specDecisions, 2);
  EXPECT_EQ(s.specCorrect, 1);
}

TEST_F(ControllerTest, WriteForwardingServesReadFromWriteQueue) {
  build();
  write(rowAddr(3));
  const size_t r = read(rowAddr(3));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.forwardedReads, 1);
  EXPECT_GE(done_[r], 0);
}

TEST_F(ControllerTest, WriteCoalescingDropsDuplicates) {
  build();
  write(rowAddr(4));
  write(rowAddr(4));
  eq_.run();
  // Both writes are received, but the duplicate coalesces into one buffered
  // entry: exactly one column access reaches the DRAM.
  EXPECT_EQ(mc_->stats().writes, 2);
  EXPECT_EQ(mc_->energyMeter().casOps(), 1);
}

TEST_F(ControllerTest, ReadsPrioritizedOverBufferedWrites) {
  build();
  // One write sits buffered; a read to a *different bank* should complete
  // without waiting behind a write drain (the write may have opened its own
  // bank first, so the read only pays command-bus and tRRD spacing).
  write(rowAddr(5));
  core::DramAddress da;
  da.bank = 1;
  da.row = 6;
  const size_t r = read(map_->compose(da));
  eq_.run();
  const auto t = dram::TimingParams::tsi();
  EXPECT_LE(done_[r], t.tRRD + t.tRCD + t.tAA + t.tBURST + t.tCMD);
  EXPECT_EQ(mc_->outstanding(), 0);  // the write drained once reads were done
}

TEST_F(ControllerTest, ManyRandomRequestsAllCompleteUnderChecker) {
  build(2, 8, core::PolicyKind::Open, SchedulerKind::ParBs);
  Rng rng(5);
  std::vector<size_t> idx;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t addr = (rng.nextU64() % (1ull << 30)) & ~63ull;
    if (rng.nextBool(0.3)) {
      write(addr);
    } else {
      idx.push_back(read(addr, static_cast<ThreadId>(rng.nextBounded(4))));
    }
  }
  eq_.run();
  for (const size_t i : idx) EXPECT_GE(done_[i], 0) << "read " << i << " never completed";
  EXPECT_EQ(mc_->outstanding(), 0);
}

TEST_F(ControllerTest, UbanksRemoveConflictsBetweenInterleavedRows) {
  // Two alternating rows that live in the same bank at (1,1) but in
  // different μbanks at (1,8): the conflict count must collapse.
  build(1, 1);
  for (int i = 0; i < 10; ++i) {
    read(rowAddr(1, i));
    read(rowAddr(9, i));  // row 9: same bank, different row at (1,1)
    eq_.run();
  }
  // One conflict per alternation (the scheduler serves the row hit first,
  // then the other row evicts it).
  const auto conflictsBase = mc_->stats().rowConflicts;
  EXPECT_GE(conflictsBase, 10);

  build(1, 8);
  done_.clear();
  // Compose addresses against the new map: rows 1 and 9 of μbank 0 and the
  // equivalent lines now map to distinct μbanks.
  for (int i = 0; i < 10; ++i) {
    core::DramAddress a;
    a.row = 1;
    a.column = i;
    core::DramAddress b;
    b.row = 1;
    b.ubank = 1;
    b.column = i;
    read(map_->compose(a));
    read(map_->compose(b));
    eq_.run();
  }
  EXPECT_EQ(mc_->stats().rowConflicts, 0);
  EXPECT_EQ(mc_->stats().rowHits, 18);
}

TEST_F(ControllerTest, QueueOccupancyReflectsBacklog) {
  build();
  for (int i = 0; i < 20; ++i) read(rowAddr(i * 7 + 1));
  eq_.run();
  mc_->finalize(eq_.now());
  EXPECT_GT(mc_->stats().avgQueueOccupancy, 1.0);
}

TEST_F(ControllerTest, EnergyMeterCountsActsAndCas) {
  build();
  read(rowAddr(1, 0));
  read(rowAddr(1, 1));
  eq_.run();
  const auto& m = mc_->energyMeter();
  EXPECT_EQ(m.activations(), 1);
  EXPECT_EQ(m.casOps(), 2);
  EXPECT_DOUBLE_EQ(m.actPre(), 30000.0);  // one full 8 KB row
}

TEST_F(ControllerTest, UbankActivationEnergyScalesDown) {
  build(8, 1);
  core::DramAddress a;
  a.row = 1;
  read(map_->compose(a));
  eq_.run();
  EXPECT_DOUBLE_EQ(mc_->energyMeter().actPre(), 30000.0 / 8.0);
}

TEST_F(ControllerTest, RefreshHappensWhenEnabled) {
  geom_ = testGeometry();
  map_.emplace(core::AddressMap::pageInterleaved(geom_));
  ControllerConfig cfg;
  cfg.refreshEnabled = true;
  cfg.enableTimingCheck = true;
  mc_.emplace(0, geom_, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
              *map_, cfg, eq_);
  // Activity far past several refresh intervals.
  for (int i = 0; i < 5; ++i) {
    read(rowAddr(i + 1));
    eq_.runUntil(eq_.now() + us(20));
  }
  eq_.run();
  EXPECT_GT(mc_->stats().refreshes, 0);
}

TEST_F(ControllerTest, FcfsAndFrFcfsBothDrainEverything) {
  for (auto kind : {SchedulerKind::Fcfs, SchedulerKind::FrFcfs}) {
    build(1, 1, core::PolicyKind::Open, kind);
    done_.clear();
    std::vector<size_t> idx;
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
      idx.push_back(read((rng.nextU64() % (1ull << 28)) & ~63ull));
    eq_.run();
    for (const size_t i : idx) EXPECT_GE(done_[i], 0);
  }
}

TEST_F(ControllerTest, LatencyStatsPopulated) {
  build();
  read(rowAddr(1));
  eq_.run();
  mc_->finalize(eq_.now());
  const auto s = mc_->stats();
  const auto t = dram::TimingParams::tsi();
  EXPECT_NEAR(s.avgReadLatencyNs, toNs(t.tRCD + t.tAA + t.tBURST), 0.01);
}

// ---- Kick-event bookkeeping ----------------------------------------------

TEST_F(ControllerTest, KickBookkeepingStaysBoundedUnderIdleThenBurst) {
  build();
  std::size_t maxLive = 0;
  for (int cycle = 0; cycle < 16; ++cycle) {
    // Burst across conflicting rows of one bank, then go fully idle. Every
    // conflict arms a future wake-up; the bookkeeping must not accumulate
    // entries across cycles.
    for (int i = 0; i < 6; ++i) read(rowAddr(cycle * 8 + i));
    while (eq_.step()) {
      const auto& ks = mc_->pendingKickEvents();
      maxLive = std::max(maxLive, ks.size());
      // Sorted ascending with no duplicate ticks: armKick dedupes per tick.
      for (std::size_t k = 1; k < ks.size(); ++k)
        ASSERT_LT(ks[k - 1].at, ks[k].at);
    }
    // Fully drained: every armed wake-up fired and erased itself.
    ASSERT_LE(mc_->pendingKickEvents().size(), 1u) << "cycle " << cycle;
  }
  EXPECT_TRUE(mc_->pendingKickEvents().empty());
  EXPECT_EQ(mc_->liveCompletionCount(), 0u);
  // Transient entries are bounded by the burst depth, not by run history.
  EXPECT_LE(maxLive, 6u);
}

TEST_F(ControllerTest, KickAndCompletionStateSurviveCheckpointRoundTrip) {
  build();
  for (int i = 0; i < 6; ++i) read(rowAddr(i));  // conflicting rows → wake-ups
  // Step to a mid-flight point where at least one wake-up is armed.
  while (mc_->pendingKickEvents().empty() && eq_.step()) {
  }
  ASSERT_FALSE(mc_->pendingKickEvents().empty());
  const Tick snapTick = eq_.now();
  std::vector<Tick> snapKicks;
  for (const auto& e : mc_->pendingKickEvents()) snapKicks.push_back(e.at);
  const std::size_t snapCompl = mc_->liveCompletionCount();
  std::vector<std::size_t> pendingIdx;
  for (std::size_t i = 0; i < done_.size(); ++i)
    if (done_[i] < 0) pendingIdx.push_back(i);

  ckpt::Writer w;
  mc_->save(w);
  // The checking state keeps the MBCKPT1 bytes the controller section has
  // always had: pinned against a build that predates the live auditor.
  EXPECT_EQ(ckpt::fnv1a64(w.str()), 0xb6baaa400f512bf4ull);

  // Finish the original run; the requests still in flight at the snapshot
  // are the reference the restored controller must reproduce.
  eq_.run();
  std::vector<Tick> refDone;
  for (const std::size_t i : pendingIdx) refDone.push_back(done_[i]);
  std::sort(refDone.begin(), refDone.end());

  // Fresh controller restored from the snapshot at the capture tick.
  EventQueue eq2;
  eq2.restoreClock(snapTick);
  ControllerConfig cfg;
  cfg.pagePolicy = core::PolicyKind::Open;
  cfg.scheduler = SchedulerKind::ParBs;
  cfg.enableTimingCheck = true;
  cfg.refreshEnabled = false;
  MemoryController mc2(0, geom_, dram::TimingParams::tsi(),
                       dram::EnergyParams::lpddrTsi(), *map_, cfg, eq2);
  std::vector<Tick> gotDone;
  mc2.completionFactory = [&gotDone](std::uint64_t, CoreId) {
    return [&gotDone](Tick when) { gotDone.push_back(when); };
  };
  ckpt::Reader r(w.str());
  mc2.load(r);
  ASSERT_TRUE(r.ok());
  mc2.reschedule();

  // Exactly the saved wake-ups came back — no stale or duplicate entries.
  ASSERT_EQ(mc2.pendingKickEvents().size(), snapKicks.size());
  for (std::size_t i = 0; i < snapKicks.size(); ++i)
    EXPECT_EQ(mc2.pendingKickEvents()[i].at, snapKicks[i]);
  EXPECT_EQ(mc2.liveCompletionCount(), snapCompl);

  eq2.run();
  std::sort(gotDone.begin(), gotDone.end());
  EXPECT_EQ(gotDone, refDone);
  EXPECT_TRUE(mc2.pendingKickEvents().empty());
  EXPECT_EQ(mc2.liveCompletionCount(), 0u);
  EXPECT_EQ(mc2.outstanding(), 0);
}

TEST_F(ControllerTest, StaleKickEntryDiesOnRestoreIntoItsPast) {
  build();
  for (int i = 0; i < 6; ++i) read(rowAddr(i));
  while (mc_->pendingKickEvents().empty() && eq_.step()) {
  }
  ASSERT_FALSE(mc_->pendingKickEvents().empty());
  ckpt::Writer w;
  mc_->save(w);
  const Tick lastKick = mc_->pendingKickEvents().back().at;

  // Restoring into a clock beyond the saved wake-ups makes them stale; the
  // re-arm must trip the event queue's past-check rather than silently
  // resurrect them at a tick that already elapsed.
  EventQueue eq2;
  eq2.restoreClock(lastKick + 1);
  ControllerConfig cfg;
  cfg.pagePolicy = core::PolicyKind::Open;
  cfg.scheduler = SchedulerKind::ParBs;
  cfg.enableTimingCheck = true;
  cfg.refreshEnabled = false;
  MemoryController mc2(0, geom_, dram::TimingParams::tsi(),
                       dram::EnergyParams::lpddrTsi(), *map_, cfg, eq2);
  mc2.completionFactory = [](std::uint64_t, CoreId) { return [](Tick) {}; };
  ckpt::Reader r(w.str());
  mc2.load(r);
  ASSERT_TRUE(r.ok());
  EXPECT_DEATH(mc2.reschedule(), "check failed");
}

}  // namespace
}  // namespace mb::mc
