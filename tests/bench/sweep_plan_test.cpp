// bench::SweepPlan runs the figure benches on the sweep path mbserve uses
// (serve::runPlan). Two contracts are pinned here at the bench level:
//   - a warm-up snapshot shared across grid points gives results
//     runResultToJson-identical to replaying the warm-up inside each point;
//   - a failing point is named on stderr before the plan aborts.
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/journal.hpp"

namespace mb::bench {
namespace {

TEST(SweepPlan, SharedWarmupMatchesAColdReplayPerPoint) {
  constexpr std::int64_t kWarmup = 2000;
  const auto workload = sim::WorkloadSpec::spec("429.mcf");
  // Memory-side knobs are outside the warm-up key, so both cells share one
  // snapshot.
  const std::vector<std::pair<int, int>> ubanks = {{1, 1}, {4, 4}};
  SweepPlan plan;
  std::vector<std::size_t> cells;
  for (const auto& [nw, nb] : ubanks) {
    sim::SystemConfig cfg = sim::tsiBaselineConfig();
    cfg.ubank = dram::UbankConfig{nw, nb};
    cells.push_back(plan.add(workload.name, cfg));
  }
  plan.enableWarmup(kWarmup);
  ::testing::internal::CaptureStderr();
  plan.run(2);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("1 snapshots shared across 2 points"), std::string::npos) << log;

  for (std::size_t i = 0; i < ubanks.size(); ++i) {
    sim::SystemConfig cfg = sim::tsiBaselineConfig();
    cfg.ubank = dram::UbankConfig{ubanks[i].first, ubanks[i].second};
    sim::applySlice(cfg, sim::slicePresetFromEnv(), /*multicore=*/false);
    sim::RunOptions cold;  // no restore buffer: the warm-up replays in-run
    cold.warmupRecords = kWarmup;
    const auto& got = plan.results(cells[i]);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(sim::runResultToJson(got[0]),
              sim::runResultToJson(sim::runSimulation(cfg, workload, cold)))
        << "cell " << i;
  }
}

TEST(SweepPlanDeathTest, FailedPointIsNamedBeforeTheAbort) {
  sim::SystemConfig cfg = sim::tsiBaselineConfig();
  cfg.ubank = dram::UbankConfig{3, 1};  // the geometry check rejects nW=3
  SweepPlan plan;
  plan.add("429.mcf", cfg);
  EXPECT_DEATH(plan.run(1),
               "sweep point 0 \\(429\\.mcf\\) failed.*1 of 1 sweep points failed");
}

}  // namespace
}  // namespace mb::bench
