#include "sim/sweep.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "serve/job_spec.hpp"
#include "sim/experiment.hpp"

namespace mb::sim {
namespace {

// Exact (bitwise for every numeric field) equality of two RunResults: the
// determinism contract is that worker count and completion order change
// nothing at all, so comparisons use ==, never near-tolerances.
void expectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.systemIpc, b.systemIpc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.energy.processor, b.energy.processor);
  EXPECT_EQ(a.energy.dramActPre, b.energy.dramActPre);
  EXPECT_EQ(a.energy.dramStatic, b.energy.dramStatic);
  EXPECT_EQ(a.energy.dramRdWr, b.energy.dramRdWr);
  EXPECT_EQ(a.energy.io, b.energy.io);
  EXPECT_EQ(a.invEdp, b.invEdp);
  EXPECT_EQ(a.rowHitRate, b.rowHitRate);
  EXPECT_EQ(a.predictorHitRate, b.predictorHitRate);
  EXPECT_EQ(a.avgQueueOccupancy, b.avgQueueOccupancy);
  EXPECT_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
  EXPECT_EQ(a.dataBusUtilization, b.dataBusUtilization);
  EXPECT_EQ(a.dramReads, b.dramReads);
  EXPECT_EQ(a.dramWrites, b.dramWrites);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.mapki, b.mapki);
  EXPECT_EQ(a.hierarchy.accesses, b.hierarchy.accesses);
  EXPECT_EQ(a.hierarchy.l1Hits, b.hierarchy.l1Hits);
  EXPECT_EQ(a.hierarchy.l2Hits, b.hierarchy.l2Hits);
  EXPECT_EQ(a.hierarchy.dramReads, b.hierarchy.dramReads);
  EXPECT_EQ(a.hierarchy.dramWrites, b.hierarchy.dramWrites);
  EXPECT_EQ(a.hierarchy.prefetchIssued, b.hierarchy.prefetchIssued);
  EXPECT_EQ(a.hierarchy.prefetchUseful, b.hierarchy.prefetchUseful);
  EXPECT_EQ(a.coreIpc, b.coreIpc);
}

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

TEST(SweepRunner, ParallelIsBitIdenticalToSerial) {
  const auto points = seededGrid(0xfeedULL);
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const auto a = SweepRunner(serial).run(points);
  const auto b = SweepRunner(parallel).run(points);
  ASSERT_EQ(a.size(), points.size());
  ASSERT_EQ(b.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(a[i].ok);
    EXPECT_TRUE(b[i].ok);
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(b[i].index, i);
    EXPECT_EQ(a[i].label, points[i].label);
    expectIdentical(a[i].result, b[i].result);
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

TEST(SweepRunner, ReseededParallelIsBitIdenticalToSerial) {
  // Reseeding happens at plan time: planJob folds foldPointSeed(seed,
  // index) into each point's cfg.seed, so the runner only ever sees
  // effective seeds and worker count cannot change any run.
  const auto points = plannedReplicates(true);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_NE(points[0].cfg.seed, points[1].cfg.seed);
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const auto a = SweepRunner(serial).run(points);
  const auto b = SweepRunner(parallel).run(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(a[i].ok && b[i].ok);
    expectIdentical(a[i].result, b[i].result);
  }
  // Distinct folded seeds => the replicates are genuinely independent runs.
  EXPECT_NE(a[0].result.elapsed, a[1].result.elapsed);
  // And without reseeding, replicates of one point are the identical run.
  const auto same = SweepRunner(parallel).run(plannedReplicates(false));
  ASSERT_TRUE(same[0].ok && same[1].ok);
  expectIdentical(same[0].result, same[1].result);
}

TEST(SweepRunner, FailingPointIsIsolated) {
  auto points = seededGrid(0xfeedULL);
  points.resize(3);
  // nW=3 is rejected by geometry validation inside runSimulation with an
  // MB_CHECK — under the sweep's per-point trap that must surface as a
  // recorded error on exactly this point, not a process abort.
  points[1].cfg.ubank = dram::UbankConfig{3, 1};
  points[1].label = "broken(3,1)";
  SweepOptions opts;
  opts.jobs = 2;
  const auto outcomes = SweepRunner(opts).run(points);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("check failed"), std::string::npos);
  EXPECT_TRUE(outcomes[2].ok);
  // The healthy points are unaffected by their broken neighbor.
  const auto clean = SweepRunner(opts).run({points[0], points[2]});
  expectIdentical(outcomes[0].result, clean[0].result);
  expectIdentical(outcomes[2].result, clean[1].result);
}

TEST(SweepRunner, OnProgressReportsMonotoneSerializedCounts) {
  auto points = seededGrid(0x5eedULL);
  points.resize(6);
  SweepOptions opts;
  opts.jobs = 3;
  std::vector<SweepProgress> seen;  // callback is serialized: plain vector
  opts.onProgress = [&seen](const SweepProgress& p) { seen.push_back(p); };
  bool orderHolds = true;
  std::size_t doneAtCallback = 0;
  opts.onPointDone = [&](const SweepOutcome&) { ++doneAtCallback; };
  const auto outcomes = SweepRunner(opts).run(points);
  ASSERT_EQ(seen.size(), points.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    // done counts up 1..N in callback order regardless of which worker
    // finished; total is constant; every reported index is in range.
    orderHolds = orderHolds && seen[i].done == i + 1;
    EXPECT_EQ(seen[i].total, points.size());
    EXPECT_LT(seen[i].index, points.size());
    EXPECT_TRUE(seen[i].ok);
    EXPECT_EQ(seen[i].failed, 0u);
  }
  EXPECT_TRUE(orderHolds);
  // onProgress fires after onPointDone for the same point, so a consumer
  // that persists in onPointDone sees its own write counted.
  EXPECT_EQ(doneAtCallback, points.size());
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok);
}

TEST(SweepRunner, ProgressCountsFailures) {
  auto points = seededGrid(0x5eedULL);
  points.resize(3);
  points[1].cfg.ubank = dram::UbankConfig{3, 1};  // fails inside the run
  SweepOptions opts;
  opts.jobs = 1;
  std::size_t failedAtEnd = 0;
  opts.onProgress = [&](const SweepProgress& p) { failedAtEnd = p.failed; };
  (void)SweepRunner(opts).run(points);
  EXPECT_EQ(failedAtEnd, 1u);
}

TEST(SweepRunner, CancelTokenMarksUnstartedPointsCanceled) {
  auto points = seededGrid(0xabcULL);
  points.resize(8);
  std::atomic<bool> cancel{false};
  SweepOptions opts;
  opts.jobs = 1;  // serial: cancelling after point 2 leaves 3.. unstarted
  opts.cancel = &cancel;
  std::size_t finished = 0;
  opts.onPointDone = [&](const SweepOutcome&) {
    if (++finished == 2) cancel.store(true);
  };
  const auto outcomes = SweepRunner(opts).run(points);
  ASSERT_EQ(outcomes.size(), points.size());
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_FALSE(outcomes[0].canceled);
  EXPECT_FALSE(outcomes[1].canceled);
  for (std::size_t i = 2; i < outcomes.size(); ++i) {
    // Canceled points are distinguishable from failed ones (ok=false on
    // both, canceled only here) and slot into their original indices.
    EXPECT_FALSE(outcomes[i].ok) << i;
    EXPECT_TRUE(outcomes[i].canceled) << i;
    EXPECT_EQ(outcomes[i].index, i);
    EXPECT_EQ(outcomes[i].label, points[i].label);
  }
  // Progress still counted every point (canceled ones count as done+failed
  // so a consumer's done/total reaches total and terminates).
}

TEST(SweepRunner, CancelBeforeStartCancelsEverythingQuickly) {
  auto points = seededGrid(0x77ULL);
  points.resize(5);
  std::atomic<bool> cancel{true};  // tripped before run() begins
  SweepOptions opts;
  opts.jobs = 2;
  opts.cancel = &cancel;
  const auto outcomes = SweepRunner(opts).run(points);
  for (const auto& o : outcomes) {
    EXPECT_FALSE(o.ok);
    EXPECT_TRUE(o.canceled);
    EXPECT_NE(o.error.find("canceled"), std::string::npos);
  }
}

}  // namespace
}  // namespace mb::sim
