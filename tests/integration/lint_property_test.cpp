// Property test tying the static-analysis layer to live traffic: every
// (nW, nB) point of the paper's 5x5 μbank grid, under both static page
// policies, must (a) lint clean statically and (b) drive random traffic
// through a controller with its protocol auditor in diagnostic-collection mode
// producing ZERO diagnostics. Unlike the abort-on-violation property test,
// a failure here prints the full structured diagnostics (command, violated
// constraint, shadow history) instead of killing the process on the first
// violation.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/config_lint.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "mc/controller.hpp"

namespace mb::mc {
namespace {

using Param = std::tuple<int, int, core::PolicyKind>;

class LintPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(LintPropertyTest, GridPointLintsCleanAndRunsWithZeroDiagnostics) {
  const auto [nW, nB, policy] = GetParam();

  dram::Geometry g;
  g.channels = 1;
  g.ranksPerChannel = 2;
  g.banksPerRank = 8;
  g.ubank = {nW, nB};
  g.capacityBytes = 4 * kGiB;
  ASSERT_TRUE(g.valid());

  analysis::DiagnosticEngine engine;

  // Static pre-flight: the grid point itself must lint clean.
  analysis::ConfigLinter linter(engine);
  EXPECT_TRUE(linter.lintGeometry(g)) << engine.renderText();
  EXPECT_TRUE(linter.lintAddressMap(g, /*interleaveBaseBit=*/-1, false))
      << engine.renderText();
  EXPECT_TRUE(linter.lintTiming(dram::TimingParams::tsi())) << engine.renderText();
  ASSERT_TRUE(engine.empty()) << engine.renderText();

  // Dynamic conformance: random traffic with the auditor collecting into
  // the engine instead of aborting.
  const core::AddressMap map(g, 6 + exactLog2(g.linesPerUbankRow()));
  ControllerConfig cfg;
  cfg.pagePolicy = policy;
  cfg.enableTimingCheck = true;
  cfg.diagnostics = &engine;

  EventQueue eq;
  MemoryController mc(0, g, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
                      map, cfg, eq);

  Rng rng(static_cast<std::uint64_t>(nW * 1009 + nB * 53 +
                                     (policy == core::PolicyKind::Open ? 1 : 2)));
  int completed = 0;
  int issued = 0;
  std::uint64_t rowBase = 0;
  for (int i = 0; i < 600; ++i) {
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
    if (rng.nextBool(0.05)) {
      eq.run();
    } else {
      eq.runUntil(eq.now() + static_cast<Tick>(rng.nextBounded(30)) * kNanosecond);
    }
  }
  eq.run();
  EXPECT_EQ(completed, issued);
  EXPECT_EQ(mc.outstanding(), 0);
  EXPECT_TRUE(engine.empty()) << "protocol diagnostics on (" << nW << "," << nB
                              << "):\n"
                              << engine.renderText();
}

INSTANTIATE_TEST_SUITE_P(
    UbankGridTimesPagePolicy, LintPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),  // nW (full grid axis)
                       ::testing::Values(1, 2, 4, 8, 16),  // nB (full grid axis)
                       ::testing::Values(core::PolicyKind::Open,
                                         core::PolicyKind::Close)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "nW" + std::to_string(std::get<0>(info.param)) + "nB" +
             std::to_string(std::get<1>(info.param)) + "_" +
             core::policyKindName(std::get<2>(info.param));
    });

}  // namespace
}  // namespace mb::mc
