// Full-stack integration tests: cores + caches + directory + controllers +
// DRAM, with the protocol auditor armed, across workload kinds and system
// configurations. These verify the plumbing (completion, accounting
// conservation), not performance trends (see trends_test.cpp).
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/system.hpp"

namespace mb::sim {
namespace {

SystemConfig fast(int maxInstrs = 50000) {
  SystemConfig cfg = tsiBaselineConfig();
  cfg.core.maxInstrs = maxInstrs;
  cfg.timingCheck = true;
  return cfg;
}

TEST(EndToEnd, EveryHighGroupAppCompletes) {
  for (const auto& name : trace::specGroupMembers(trace::SpecGroup::High)) {
    const auto r = runSpecApp(name, fast(20000));
    EXPECT_GT(r.systemIpc, 0.0) << name;
    EXPECT_GT(r.dramReads, 0) << name;
  }
}

TEST(EndToEnd, EveryUbankConfigCompletes) {
  for (int nW : {1, 2, 4, 8, 16}) {
    for (int nB : {1, 4, 16}) {
      auto cfg = fast(20000);
      cfg.ubank = {nW, nB};
      const auto r = runSpecApp("450.soplex", cfg);
      EXPECT_GT(r.systemIpc, 0.0) << nW << "x" << nB;
    }
  }
}

TEST(EndToEnd, EveryPhyCompletes) {
  for (auto phy : {interface::PhyKind::Ddr3Pcb, interface::PhyKind::Ddr3Tsi,
                   interface::PhyKind::LpddrTsi}) {
    auto cfg = fast(20000);
    cfg.phy = phy;
    const auto r = runSpecApp("433.milc", cfg);
    EXPECT_GT(r.systemIpc, 0.0) << interface::phyKindName(phy);
  }
}

TEST(EndToEnd, EveryPagePolicyCompletes) {
  for (auto policy :
       {core::PolicyKind::Open, core::PolicyKind::Close, core::PolicyKind::MinimalistOpen,
        core::PolicyKind::LocalBimodal, core::PolicyKind::GlobalBimodal,
        core::PolicyKind::Tournament, core::PolicyKind::Perfect}) {
    auto cfg = fast(20000);
    cfg.pagePolicy = policy;
    const auto r = runSpecApp("471.omnetpp", cfg);
    EXPECT_GT(r.systemIpc, 0.0) << core::policyKindName(policy);
  }
}

TEST(EndToEnd, MultithreadedKernelsCompleteOn16Cores) {
  for (auto kind : {trace::MtKind::Radix, trace::MtKind::Fft, trace::MtKind::Canneal,
                    trace::MtKind::TpcC, trace::MtKind::TpcH}) {
    auto cfg = fast(15000);
    cfg.hier.numCores = 16;
    cfg.channels = 4;
    const auto r = runSimulation(cfg, WorkloadSpec::mt(kind));
    EXPECT_EQ(r.coreIpc.size(), 16u) << trace::mtKindName(kind);
    EXPECT_GT(r.systemIpc, 0.0) << trace::mtKindName(kind);
  }
}

TEST(EndToEnd, MixesCompleteOn16Cores) {
  for (const char* mix : {"mix-high", "mix-blend"}) {
    auto cfg = fast(15000);
    cfg.hier.numCores = 16;
    cfg.channels = 4;
    const auto r = runSimulation(cfg, WorkloadSpec::mix(mix));
    EXPECT_GT(r.systemIpc, 0.0) << mix;
  }
}

TEST(EndToEnd, RequestAccountingConserves) {
  // Every DRAM request the hierarchy issues is received by a controller,
  // modulo the handful that may still be in flight (scheduled but not yet
  // delivered) when the run stops at the instruction budget.
  const auto r = runSpecApp("429.mcf", fast(40000));
  const auto issued = r.hierarchy.dramReads + r.hierarchy.dramWrites;
  const auto received = r.dramReads + r.dramWrites;
  EXPECT_LE(received, issued);
  EXPECT_GE(received, issued - 32);
  EXPECT_GT(r.activations, 0);
  EXPECT_LE(r.activations, received + 64);
}

TEST(EndToEnd, EnergyConsistentWithEventCounts) {
  const auto r = runSpecApp("470.lbm", fast(40000));
  // ACT/PRE energy must equal activations x 30 nJ (full-row baseline) plus
  // refresh contributions, so it is at least the activation part.
  EXPECT_GE(r.energy.dramActPre, static_cast<double>(r.activations) * 30000.0 * 0.99);
  // I/O energy is exactly bits-moved x 4 pJ/b for LPDDR-TSI.
  const double bits = static_cast<double>(r.dramReads + r.dramWrites) * 64 * 8;
  EXPECT_NEAR(r.energy.io, bits * 4.0, bits * 4.0 * 0.01 + 1);
}

TEST(EndToEnd, QueueBackpressureRespectsWindow) {
  // A pathological all-conflict stream must not grow unbounded queues
  // thanks to MSHR/store-buffer limits.
  auto cfg = fast(30000);
  const auto r = runSpecApp("429.mcf", cfg);
  EXPECT_LT(r.avgQueueOccupancy, 64.0);
}

TEST(EndToEnd, InterleaveBaseBitsAllComplete) {
  for (int iB : {6, 8, 10, 13}) {
    auto cfg = fast(20000);
    cfg.interleaveBaseBit = iB;
    const auto r = runSpecApp("462.libquantum", cfg);
    EXPECT_GT(r.systemIpc, 0.0) << "iB=" << iB;
  }
}

TEST(EndToEnd, RefreshOnOffBothComplete) {
  for (bool refresh : {true, false}) {
    auto cfg = fast(20000);
    cfg.refresh = refresh;
    const auto r = runSpecApp("437.leslie3d", cfg);
    EXPECT_GT(r.systemIpc, 0.0);
  }
}

}  // namespace
}  // namespace mb::sim
