#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "trace/trace_file.hpp"

namespace mb::sim {
namespace {

SystemConfig fastConfig() {
  SystemConfig cfg;
  cfg.core.maxInstrs = 60000;
  cfg.timingCheck = true;  // every command validated in these tests
  return cfg;
}

TEST(GeometryFor, FollowsPhyRankOrganization) {
  SystemConfig cfg;
  cfg.phy = interface::PhyKind::LpddrTsi;
  EXPECT_EQ(geometryFor(cfg, 16).ranksPerChannel, 4);  // die = rank
  cfg.phy = interface::PhyKind::Ddr3Pcb;
  EXPECT_EQ(geometryFor(cfg, 8).ranksPerChannel, 2);
}

TEST(GeometryFor, UbankPassedThrough) {
  SystemConfig cfg;
  cfg.ubank = {4, 8};
  const auto g = geometryFor(cfg, 4);
  EXPECT_EQ(g.ubank.nW, 4);
  EXPECT_EQ(g.ubank.nB, 8);
  EXPECT_TRUE(g.valid());
}

TEST(GeometryFor, DeriveGeometryLeavesAnInvalidConfigToTheLint) {
  SystemConfig cfg;
  cfg.ubank = {3, 1};
  const auto g = deriveGeometry(cfg, 1);  // geometryFor would fail MB_CHECK
  EXPECT_EQ(g.ubank.nW, 3);
  EXPECT_FALSE(g.valid());
}

TEST(RunSimulation, SingleSpecProducesSaneMetrics) {
  const auto r = runSimulation(fastConfig(), WorkloadSpec::spec("462.libquantum"));
  EXPECT_GT(r.systemIpc, 0.0);
  EXPECT_LT(r.systemIpc, 8.0);
  EXPECT_EQ(r.instructions, 4 * 60000);  // four SimPoint-slice copies
  EXPECT_GT(r.elapsed, 0);
  EXPECT_GT(r.dramReads, 0);
  EXPECT_GT(r.energy.total(), 0.0);
  EXPECT_GT(r.invEdp, 0.0);
  EXPECT_GE(r.rowHitRate, 0.0);
  EXPECT_LE(r.rowHitRate, 1.0);
  EXPECT_EQ(r.coreIpc.size(), 4u);
}

TEST(RunSimulation, SingleSpecRunsFourSliceCopies) {
  // §VI-A: top-4 SimPoint slices, one populated memory controller.
  const auto r = runSimulation(fastConfig(), WorkloadSpec::spec("450.soplex"));
  EXPECT_EQ(r.coreIpc.size(), 4u);
  auto one = fastConfig();
  one.specCopies = 1;
  const auto r1 = runSimulation(one, WorkloadSpec::spec("450.soplex"));
  EXPECT_EQ(r1.coreIpc.size(), 1u);
}

TEST(RunSimulation, MeasuredMapkiTracksProfile) {
  // The DRAM-level MAPKI should be in the neighbourhood of the profile's
  // cold-reference intensity (write-allocate fetches and writebacks add to
  // it; caches subtract).
  auto cfg = fastConfig();
  const auto high = runSimulation(cfg, WorkloadSpec::spec("429.mcf"));
  const auto low = runSimulation(cfg, WorkloadSpec::spec("416.gamess"));
  EXPECT_GT(high.mapki, 15.0);
  EXPECT_LT(low.mapki, 3.0);
}

TEST(RunSimulation, IsDeterministic) {
  const auto a = runSimulation(fastConfig(), WorkloadSpec::spec("433.milc"));
  const auto b = runSimulation(fastConfig(), WorkloadSpec::spec("433.milc"));
  EXPECT_DOUBLE_EQ(a.systemIpc, b.systemIpc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.dramReads, b.dramReads);
  EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(RunSimulation, SeedChangesResults) {
  auto cfg = fastConfig();
  const auto a = runSimulation(cfg, WorkloadSpec::spec("433.milc"));
  cfg.seed = 999;
  const auto b = runSimulation(cfg, WorkloadSpec::spec("433.milc"));
  EXPECT_NE(a.dramReads, b.dramReads);
}

TEST(RunSimulation, MixPopulatesAllCores) {
  auto cfg = fastConfig();
  cfg.hier.numCores = 8;
  cfg.channels = 4;
  cfg.core.maxInstrs = 30000;
  const auto r = runSimulation(cfg, WorkloadSpec::mix("mix-high"));
  EXPECT_EQ(r.coreIpc.size(), 8u);
  for (const double ipc : r.coreIpc) EXPECT_GT(ipc, 0.0);
  EXPECT_EQ(r.instructions, 8 * 30000);
}

TEST(RunSimulation, MultithreadedRuns) {
  auto cfg = fastConfig();
  cfg.hier.numCores = 8;
  cfg.channels = 4;
  cfg.core.maxInstrs = 30000;
  const auto r = runSimulation(cfg, WorkloadSpec::mt(trace::MtKind::Fft));
  EXPECT_EQ(r.coreIpc.size(), 8u);
  EXPECT_GT(r.dramReads, 0);
  EXPECT_EQ(r.workload, "FFT");
}

TEST(RunSimulation, EnergyBreakdownCategoriesAllPresent) {
  const auto r = runSimulation(fastConfig(), WorkloadSpec::spec("470.lbm"));
  EXPECT_GT(r.energy.processor, 0.0);
  EXPECT_GT(r.energy.dramActPre, 0.0);
  EXPECT_GT(r.energy.dramRdWr, 0.0);
  EXPECT_GT(r.energy.io, 0.0);
  EXPECT_GT(r.energy.dramStatic, 0.0);
}

TEST(RunSimulation, PerfectPolicyReportsUnitHitRate) {
  auto cfg = fastConfig();
  cfg.pagePolicy = core::PolicyKind::Perfect;
  const auto r = runSimulation(cfg, WorkloadSpec::spec("429.mcf"));
  EXPECT_DOUBLE_EQ(r.predictorHitRate, 1.0);
}

TEST(RunSimulation, ExtensionOptionsComplete) {
  // Per-bank refresh, activation-window scaling, and the HMC interface are
  // extension features; all must run cleanly under the protocol auditor.
  {
    auto cfg = fastConfig();
    cfg.perBankRefresh = true;
    EXPECT_GT(runSimulation(cfg, WorkloadSpec::spec("433.milc")).systemIpc, 0.0);
  }
  {
    auto cfg = fastConfig();
    cfg.ubank = {8, 2};
    cfg.scaleActWindowWithRowSize = true;
    EXPECT_GT(runSimulation(cfg, WorkloadSpec::spec("433.milc")).systemIpc, 0.0);
  }
  {
    auto cfg = fastConfig();
    cfg.phy = interface::PhyKind::Hmc;
    EXPECT_GT(runSimulation(cfg, WorkloadSpec::spec("433.milc")).systemIpc, 0.0);
  }
}

TEST(RunSimulation, HmcLinkLatencyShowsUpInReadLatency) {
  auto tsi = fastConfig();
  auto hmc = fastConfig();
  hmc.phy = interface::PhyKind::Hmc;
  const auto rTsi = runSimulation(tsi, WorkloadSpec::spec("429.mcf"));
  const auto rHmc = runSimulation(hmc, WorkloadSpec::spec("429.mcf"));
  // The MC-measured latency excludes the link, but end-to-end IPC reflects
  // the two extra hops: HMC must be slower on a latency-bound app.
  EXPECT_LT(rHmc.systemIpc, rTsi.systemIpc);
}

TEST(RunSimulation, FawScalingNeverHurts) {
  auto base = fastConfig();
  base.ubank = {8, 2};
  auto scaled = base;
  scaled.scaleActWindowWithRowSize = true;
  const auto r0 = runSimulation(base, WorkloadSpec::spec("429.mcf"));
  const auto r1 = runSimulation(scaled, WorkloadSpec::spec("429.mcf"));
  EXPECT_GE(r1.systemIpc, r0.systemIpc * 0.999);
}

TEST(RunSimulation, TraceFileReplayMatchesLiveGenerator) {
  // Record the exact streams the live run would consume, replay them, and
  // expect an identical simulation outcome.
  const std::string prefix = std::string(::testing::TempDir()) + "replay_sys";
  auto cfg = fastConfig();
  cfg.core.maxInstrs = 20000;
  for (int c = 0; c < cfg.specCopies; ++c) {
    trace::SyntheticParams p = trace::specProfile("433.milc").params;
    p.baseAddr = static_cast<std::uint64_t>(c) << 33;
    p.seed = cfg.seed * 1000003 + static_cast<std::uint64_t>(c);
    trace::SyntheticSource src(p);
    // Enough records to cover the instruction budget without wrapping.
    trace::recordTrace(src, trace::traceFilePath(prefix, c), 30000);
  }
  const auto live = runSimulation(cfg, WorkloadSpec::spec("433.milc"));
  const auto replay = runSimulation(cfg, WorkloadSpec::traceFiles(prefix));
  EXPECT_DOUBLE_EQ(replay.systemIpc, live.systemIpc);
  EXPECT_EQ(replay.dramReads, live.dramReads);
  EXPECT_EQ(replay.elapsed, live.elapsed);
  for (int c = 0; c < cfg.specCopies; ++c)
    std::remove(trace::traceFilePath(prefix, c).c_str());
}

TEST(RunSimulation, WorkloadSpecFactories) {
  EXPECT_EQ(WorkloadSpec::spec("x").kind, WorkloadSpec::Kind::SingleSpec);
  EXPECT_EQ(WorkloadSpec::mix("mix-high").kind, WorkloadSpec::Kind::Mix);
  EXPECT_EQ(WorkloadSpec::mt(trace::MtKind::Radix).kind,
            WorkloadSpec::Kind::Multithreaded);
  EXPECT_EQ(WorkloadSpec::mt(trace::MtKind::Radix).name, "RADIX");
}

}  // namespace
}  // namespace mb::sim
