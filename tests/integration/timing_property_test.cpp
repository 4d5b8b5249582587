// Property test: no legal traffic pattern, scheduler, page policy, or μbank
// configuration may ever produce a DRAM protocol-timing violation. The
// controller runs with its live protocol auditor enabled (which aborts
// the process on any violation of tRCD/tRAS/tRP/tRRD/tFAW/tCCD/tRTP/tWR/
// tWTR/bus rules), while randomized read/write traffic is pushed through.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "mc/controller.hpp"

namespace mb::mc {
namespace {

using Param = std::tuple<int, int, core::PolicyKind, SchedulerKind, int>;

class TimingPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(TimingPropertyTest, RandomTrafficNeverViolatesTiming) {
  const auto [nW, nB, policy, sched, iB] = GetParam();

  dram::Geometry g;
  g.channels = 1;
  g.ranksPerChannel = 2;
  g.banksPerRank = 8;
  g.ubank = {nW, nB};
  g.capacityBytes = 4 * kGiB;
  ASSERT_TRUE(g.valid());

  const int maxIb = 6 + exactLog2(g.linesPerUbankRow());
  const int baseBit = std::min(iB, maxIb);
  const core::AddressMap map(g, baseBit);

  ControllerConfig cfg;
  cfg.pagePolicy = policy;
  cfg.scheduler = sched;
  cfg.enableTimingCheck = true;  // aborts on any violation
  cfg.refreshEnabled = true;

  EventQueue eq;
  MemoryController mc(0, g, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
                      map, cfg, eq);

  Rng rng(static_cast<std::uint64_t>(nW * 131 + nB * 17 + baseBit));
  int completed = 0;
  int issued = 0;
  // Mixed traffic: bursts of row-local accesses, random scatter, and writes.
  std::uint64_t rowBase = 0;
  for (int i = 0; i < 1200; ++i) {
    if (rng.nextBool(0.2)) rowBase = rng.nextU64() % (1ull << 30);
    std::uint64_t addr;
    if (rng.nextBool(0.5)) {
      addr = (rowBase + rng.nextBounded(128) * 64) & ~63ull;  // row-local
    } else {
      addr = (rng.nextU64() % (1ull << 30)) & ~63ull;  // scatter
    }
    MemRequest req;
    req.addr = addr;
    req.write = rng.nextBool(0.35);
    req.thread = static_cast<ThreadId>(rng.nextBounded(8));
    if (!req.write) {
      ++issued;
      req.onComplete = [&completed](Tick) { ++completed; };
    }
    mc.enqueue(std::move(req));
    // Occasionally let the queue drain to exercise idle-precharge paths.
    if (rng.nextBool(0.05)) {
      eq.run();
    } else {
      eq.runUntil(eq.now() + static_cast<Tick>(rng.nextBounded(30)) * kNanosecond);
    }
  }
  eq.run();
  EXPECT_EQ(completed, issued);
  EXPECT_EQ(mc.outstanding(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    UbankPolicySchedulerSweep, TimingPropertyTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 8),                       // nW
        ::testing::Values(1, 4, 16),                      // nB
        ::testing::Values(core::PolicyKind::Open, core::PolicyKind::Close,
                          core::PolicyKind::Tournament, core::PolicyKind::Perfect,
                          core::PolicyKind::MinimalistOpen),
        ::testing::Values(SchedulerKind::Fcfs, SchedulerKind::FrFcfs,
                          SchedulerKind::ParBs),
        ::testing::Values(6, 10, 13)),                    // interleave base bit
    [](const ::testing::TestParamInfo<Param>& info) {
      // Note: no structured bindings here — their commas break macro parsing.
      std::string name = "nW" + std::to_string(std::get<0>(info.param)) + "nB" +
                         std::to_string(std::get<1>(info.param)) + "_" +
                         core::policyKindName(std::get<2>(info.param)) + "_" +
                         schedulerKindName(std::get<3>(info.param)) + "_iB" +
                         std::to_string(std::get<4>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mb::mc
