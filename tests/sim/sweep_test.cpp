#include "sim/sweep.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "serve/job_spec.hpp"
#include "serve/run_plan.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"

namespace mb::sim {
namespace {

/// The seeded 5x5 (nW, nB) grid of the paper's sweeps, on a tiny slice so
/// 25 simulations stay test-sized.
std::vector<SweepPoint> seededGrid(std::uint64_t seed) {
  std::vector<SweepPoint> points;
  for (int nw : sweepAxis()) {
    for (int nb : sweepAxis()) {
      SystemConfig cfg = tsiBaselineConfig();
      cfg.ubank = dram::UbankConfig{nw, nb};
      cfg.core.maxInstrs = 2000;
      cfg.seed = seed;
      points.push_back({"(" + std::to_string(nw) + "," + std::to_string(nb) + ")",
                        cfg, WorkloadSpec::spec("429.mcf")});
    }
  }
  return points;
}

TEST(FoldPointSeed, PureFunctionOfSeedAndIndex) {
  EXPECT_EQ(foldPointSeed(12345, 0), foldPointSeed(12345, 0));
  EXPECT_NE(foldPointSeed(12345, 0), foldPointSeed(12345, 1));
  EXPECT_NE(foldPointSeed(12345, 0), foldPointSeed(54321, 0));
}

TEST(FoldPointSeed, AdjacentIndicesDecorrelate) {
  // Weak-seed robustness: even with baseSeed 0 and consecutive indices, the
  // SplitMix64 fold must yield well-separated 64-bit values.
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) seen.insert(foldPointSeed(0, i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(ResolveJobs, ExplicitRequestWins) {
  setenv("MB_JOBS", "3", 1);
  EXPECT_EQ(resolveJobs(7), 7);
  unsetenv("MB_JOBS");
}

TEST(ResolveJobs, ReadsEnvWhenUnspecified) {
  setenv("MB_JOBS", "5", 1);
  EXPECT_EQ(resolveJobs(0), 5);
  unsetenv("MB_JOBS");
  EXPECT_GE(resolveJobs(0), 1);
}

// A process limited by taskset (or a cpuset cgroup) must count the CPUs it
// may run on, not every CPU of the host: the default job count and the shard
// pool's spin-or-park decision both rest on it.
TEST(ResolveJobs, DefaultFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(hostCpuCount(), CPU_COUNT(&saved));

  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  unsetenv("MB_JOBS");
  const int cpus = hostCpuCount();
  const int jobs = resolveJobs(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(cpus, 1);
  EXPECT_EQ(jobs, 1);
}

TEST(ResolveJobsDeath, RejectsMalformedEnv) {
  setenv("MB_JOBS", "many", 1);
  EXPECT_EXIT((void)resolveJobs(0), testing::ExitedWithCode(2), "MB_JOBS");
  setenv("MB_JOBS", "0", 1);
  EXPECT_EXIT((void)resolveJobs(0), testing::ExitedWithCode(2), "MB_JOBS");
  unsetenv("MB_JOBS");
}

TEST(ScopedCheckTrap, TurnsCheckIntoException) {
  bool caught = false;
  {
    ScopedCheckTrap trap;
    try {
      MB_CHECK_MSG(false, "trapped %d", 42);
    } catch (const CheckFailure& f) {
      caught = true;
      EXPECT_NE(f.message.find("trapped 42"), std::string::npos);
    }
  }
  EXPECT_TRUE(caught);
}

TEST(ScopedCheckTrapDeath, AbortsOutsideTrap) {
  EXPECT_DEATH(MB_CHECK(false), "check failed");
}

// The sweep pool lives in serve::runPlan. These cases run it with no result
// cache, so every point is a miss, and compare PointResult::json bytes: the
// determinism contract is that worker count and completion order change
// nothing at all. tools/ci.sh runs this suite under TSan.

/// `points` through runPlan with no result cache; `lru` defaults to a fresh
/// zero-budget one.
std::vector<serve::PointResult> runPool(std::vector<SweepPoint> points,
                                        const SweepOptions& opts,
                                        serve::SnapshotLru* lru = nullptr) {
  serve::JobPlan plan;
  plan.points = std::move(points);
  serve::SnapshotLru fresh(0);
  return serve::runPlan(plan, nullptr, lru != nullptr ? *lru : fresh, opts,
                        /*shards=*/1);
}

SweepOptions withJobs(int jobs) {
  SweepOptions opts;
  opts.jobs = jobs;
  return opts;
}

TEST(RunPlanPool, ParallelIsBitIdenticalToSerial) {
  const auto points = seededGrid(0xfeedULL);
  const auto a = runPool(points, withJobs(1));
  const auto b = runPool(points, withJobs(8));
  ASSERT_EQ(a.size(), points.size());
  ASSERT_EQ(b.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(a[i].ok) << a[i].error;
    ASSERT_TRUE(b[i].ok) << b[i].error;
    EXPECT_EQ(a[i].json, b[i].json) << points[i].label;
  }
}

/// Three replicates of ONE configuration (the nW axis repeated), planned
/// the way mbserve and `mbsim --sweep` plan them.
std::vector<SweepPoint> plannedReplicates(bool reseed) {
  serve::JobSpec spec;
  spec.workload = "429.mcf";
  spec.instrs = 2000;
  spec.seed = 0xfeedULL;
  spec.hasSeed = true;
  spec.nw = {1, 1, 1};
  spec.reseed = reseed;
  serve::JobPlan plan;
  analysis::DiagnosticEngine diags;
  EXPECT_TRUE(serve::planJob(spec, &plan, diags)) << diags.renderText();
  return plan.points;
}

TEST(RunPlanPool, ReseededParallelIsBitIdenticalToSerial) {
  // Reseeding happens at plan time: planJob folds foldPointSeed(seed,
  // index) into each point's cfg.seed, so the pool only ever sees
  // effective seeds and worker count cannot change any run.
  const auto points = plannedReplicates(true);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_NE(points[0].cfg.seed, points[1].cfg.seed);
  const auto a = runPool(points, withJobs(1));
  const auto b = runPool(points, withJobs(8));
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(a[i].ok && b[i].ok);
    EXPECT_EQ(a[i].json, b[i].json);
  }
  // Distinct folded seeds => the replicates are genuinely independent runs.
  EXPECT_NE(a[0].json, a[1].json);
  // And without reseeding, replicates of one point are the identical run.
  const auto same = runPool(plannedReplicates(false), withJobs(8));
  ASSERT_TRUE(same[0].ok && same[1].ok);
  EXPECT_EQ(same[0].json, same[1].json);
}

TEST(RunPlanPool, FailingPointIsIsolated) {
  auto points = seededGrid(0xfeedULL);
  points.resize(3);
  // nW=3 is rejected by geometry validation inside runSimulation with an
  // MB_CHECK — under the pool's per-point trap that must surface as a
  // recorded error on exactly this point, not a process abort.
  points[1].cfg.ubank = dram::UbankConfig{3, 1};
  points[1].label = "broken(3,1)";
  const auto outs = runPool(points, withJobs(2));
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_TRUE(outs[0].ok);
  EXPECT_FALSE(outs[1].ok);
  EXPECT_NE(outs[1].error.find("check failed"), std::string::npos);
  EXPECT_TRUE(outs[2].ok);
  // The healthy points are unaffected by their broken neighbor.
  const auto clean = runPool({points[0], points[2]}, withJobs(2));
  EXPECT_EQ(outs[0].json, clean[0].json);
  EXPECT_EQ(outs[2].json, clean[1].json);
}

TEST(RunPlanPool, OnProgressReportsMonotoneSerializedCounts) {
  auto points = seededGrid(0x5eedULL);
  points.resize(6);
  SweepOptions opts = withJobs(3);
  std::vector<SweepProgress> seen;  // callback is serialized: plain vector
  opts.onProgress = [&seen](const SweepProgress& p) { seen.push_back(p); };
  const auto outs = runPool(points, opts);
  ASSERT_EQ(seen.size(), points.size());
  std::set<std::size_t> indices;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    // done counts up 1..N in callback order regardless of which worker
    // finished; total is constant; every point is reported exactly once.
    EXPECT_EQ(seen[i].done, i + 1);
    EXPECT_EQ(seen[i].total, points.size());
    EXPECT_TRUE(seen[i].ok);
    EXPECT_EQ(seen[i].failed, 0u);
    indices.insert(seen[i].index);
  }
  EXPECT_EQ(indices.size(), points.size());
  EXPECT_LT(*indices.rbegin(), points.size());
  for (const auto& o : outs) EXPECT_TRUE(o.ok);
}

TEST(RunPlanPool, ProgressCountsFailures) {
  auto points = seededGrid(0x5eedULL);
  points.resize(3);
  points[1].cfg.ubank = dram::UbankConfig{3, 1};  // fails inside the run
  SweepOptions opts = withJobs(1);
  SweepProgress last;
  opts.onProgress = [&](const SweepProgress& p) { last = p; };
  (void)runPool(points, opts);
  EXPECT_EQ(last.done, 3u);
  EXPECT_EQ(last.failed, 1u);
}

TEST(RunPlanPool, CancelTokenMarksUnstartedPointsCanceled) {
  auto points = seededGrid(0xabcULL);
  points.resize(8);
  std::atomic<bool> cancel{false};
  // Serial: cancelling after point 2 leaves 3.. unstarted.
  SweepOptions opts = withJobs(1);
  opts.cancel = &cancel;
  std::vector<SweepProgress> seen;
  opts.onProgress = [&](const SweepProgress& p) {
    seen.push_back(p);
    if (p.done == 2) cancel.store(true);
  };
  const auto outs = runPool(points, opts);
  ASSERT_EQ(outs.size(), points.size());
  EXPECT_TRUE(outs[0].ok);
  EXPECT_TRUE(outs[1].ok);
  EXPECT_FALSE(outs[0].canceled);
  EXPECT_FALSE(outs[1].canceled);
  for (std::size_t i = 2; i < outs.size(); ++i) {
    // Canceled points are distinguishable from failed ones (ok=false on
    // both, canceled only here) and slot into their original indices.
    EXPECT_FALSE(outs[i].ok) << i;
    EXPECT_TRUE(outs[i].canceled) << i;
    EXPECT_TRUE(outs[i].error.empty()) << i;
  }
  // Progress still counted every point (canceled ones count as done+failed
  // so a consumer's done/total reaches total and terminates).
  ASSERT_EQ(seen.size(), points.size());
  EXPECT_EQ(seen.back().done, points.size());
  EXPECT_EQ(seen.back().total, points.size());
  EXPECT_EQ(seen.back().failed, points.size() - 2);
}

TEST(RunPlanPool, CancelBeforeStartCancelsEverythingQuickly) {
  auto points = seededGrid(0x77ULL);
  points.resize(5);
  std::atomic<bool> cancel{true};  // tripped before the plan runs
  SweepOptions opts = withJobs(2);
  opts.cancel = &cancel;
  SweepProgress last;
  opts.onProgress = [&](const SweepProgress& p) { last = p; };
  const auto outs = runPool(points, opts);
  for (const auto& o : outs) {
    EXPECT_FALSE(o.ok);
    EXPECT_TRUE(o.canceled);
  }
  EXPECT_EQ(last.done, points.size());
  EXPECT_EQ(last.failed, points.size());
}

// Two workers that need the same warm-up snapshot at once: the LRU runs one
// capture while the other worker waits for it, and both restored runs equal
// a run that replays the warm-up itself.
TEST(RunPlanPool, WorkersShareOneWarmupCapture) {
  constexpr std::int64_t kWarmup = 2000;
  auto points = seededGrid(0xfeedULL);
  points = {points[0], points[points.size() - 1]};  // (1,1) and (16,16)
  for (auto& p : points) p.opts.warmupRecords = kWarmup;
  ASSERT_EQ(warmupKeyHash(points[0].cfg, points[0].workload, kWarmup),
            warmupKeyHash(points[1].cfg, points[1].workload, kWarmup));
  serve::SnapshotLru lru(0);
  const auto outs = runPool(points, withJobs(2), &lru);
  EXPECT_EQ(lru.stats().misses, 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(outs[i].ok) << outs[i].error;
    RunOptions replay;
    replay.warmupRecords = kWarmup;
    const RunResult cold = runSimulation(points[i].cfg, points[i].workload, replay);
    EXPECT_EQ(outs[i].json, runResultToJson(cold)) << points[i].label;
  }
}

}  // namespace
}  // namespace mb::sim
