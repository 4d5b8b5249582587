#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

namespace mb::sim {
namespace {

TEST(Configs, TsiBaselineShape) {
  const auto cfg = tsiBaselineConfig();
  EXPECT_EQ(cfg.phy, interface::PhyKind::LpddrTsi);
  EXPECT_EQ(cfg.ubank.nW, 1);
  EXPECT_EQ(cfg.ubank.nB, 1);
  EXPECT_EQ(cfg.pagePolicy, core::PolicyKind::Open);
  EXPECT_EQ(cfg.scheduler, mc::SchedulerKind::ParBs);
}

TEST(Configs, Ddr3PcbDiffersOnlyInPhy) {
  const auto cfg = ddr3PcbConfig();
  EXPECT_EQ(cfg.phy, interface::PhyKind::Ddr3Pcb);
  EXPECT_EQ(cfg.pagePolicy, core::PolicyKind::Open);
}

TEST(SlicePresets, FullIsLargerThanFast) {
  EXPECT_GT(sliceInstructions(SlicePreset::Full, false),
            sliceInstructions(SlicePreset::Fast, false));
  EXPECT_GT(sliceInstructions(SlicePreset::Full, true),
            sliceInstructions(SlicePreset::Fast, true));
}

TEST(SlicePresets, EnvOverride) {
  setenv("MB_SLICE", "full", 1);
  EXPECT_EQ(slicePresetFromEnv(), SlicePreset::Full);
  setenv("MB_SLICE", "fast", 1);
  EXPECT_EQ(slicePresetFromEnv(), SlicePreset::Fast);
  unsetenv("MB_SLICE");
  EXPECT_EQ(slicePresetFromEnv(), SlicePreset::Fast);
  EXPECT_EQ(slicePresetFromEnv(SlicePreset::Full), SlicePreset::Full);
}

TEST(SlicePresetsDeath, RejectsUnrecognizedValue) {
  // A typo must not silently fall back and change every reported number.
  setenv("MB_SLICE", "ful", 1);
  EXPECT_EXIT((void)slicePresetFromEnv(), testing::ExitedWithCode(2), "MB_SLICE");
  setenv("MB_SLICE", "FAST", 1);
  EXPECT_EXIT((void)slicePresetFromEnv(), testing::ExitedWithCode(2), "FAST");
  unsetenv("MB_SLICE");
}

TEST(ApplySlice, SetsCoreBudget) {
  SystemConfig cfg;
  applySlice(cfg, SlicePreset::Fast, false);
  EXPECT_EQ(cfg.core.maxInstrs, sliceInstructions(SlicePreset::Fast, false));
}

TEST(Ratios, RatioAndMeanRatio) {
  RunResult a, b, c, d;
  a.systemIpc = 2.0;
  b.systemIpc = 1.0;
  c.systemIpc = 3.0;
  d.systemIpc = 2.0;
  EXPECT_DOUBLE_EQ(ratio(a, b, ipcOf), 2.0);
  EXPECT_DOUBLE_EQ(meanRatio({a, c}, {b, d}, ipcOf), (2.0 + 1.5) / 2.0);
}

TEST(RatiosDeath, ZeroBaselineAborts) {
  RunResult a, b;
  a.systemIpc = 1.0;
  b.systemIpc = 0.0;
  EXPECT_DEATH((void)ratio(a, b, ipcOf), "check failed");
}

TEST(Ratios, ZeroBaselineIsDiagnosedNotInf) {
  RunResult a, b;
  a.systemIpc = 1.0;
  a.workload = "429.mcf";
  b.systemIpc = 0.0;
  b.workload = "429.mcf";
  analysis::DiagnosticEngine diags;
  const double r = ratio(a, b, ipcOf, &diags);
  EXPECT_TRUE(std::isnan(r));
  ASSERT_TRUE(diags.hasErrors());
  ASSERT_EQ(diags.diagnostics().size(), 1u);
  EXPECT_EQ(diags.diagnostics()[0].code, "MB-EXP-001");
}

TEST(Ratios, MeanRatioExcludesDiagnosedPairs) {
  RunResult t1, t2, b1, b2;
  t1.systemIpc = 2.0;
  b1.systemIpc = 1.0;
  t2.systemIpc = 3.0;
  b2.systemIpc = 0.0;  // degenerate pair: diagnosed, excluded from the mean
  b2.workload = "dead.app";
  analysis::DiagnosticEngine diags;
  const double m = meanRatio({t1, t2}, {b1, b2}, ipcOf, &diags);
  EXPECT_DOUBLE_EQ(m, 2.0);  // not inf: the bad pair did not poison the mean
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_EQ(diags.count(analysis::Severity::Error), 1);
}

TEST(Ratios, MeanRatioAllPairsDegenerateIsZero) {
  RunResult t, b;
  t.systemIpc = 1.0;
  b.systemIpc = 0.0;
  analysis::DiagnosticEngine diags;
  EXPECT_DOUBLE_EQ(meanRatio({t}, {b}, ipcOf, &diags), 0.0);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Axes, SweepAxisIsPaper5x5) {
  EXPECT_EQ(sweepAxis(), (std::vector<int>{1, 2, 4, 8, 16}));
}

TEST(Axes, RepresentativeConfigsMatchFig10) {
  const auto cfgs = representativeConfigs();
  ASSERT_EQ(cfgs.size(), 4u);
  EXPECT_EQ(cfgs[0].label, "(1,1)");
  EXPECT_EQ(cfgs[1].nW, 2);
  EXPECT_EQ(cfgs[1].nB, 8);
  EXPECT_EQ(cfgs[3].nW, 8);
  EXPECT_EQ(cfgs[3].nB, 2);
}

}  // namespace
}  // namespace mb::sim
