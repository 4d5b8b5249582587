// runPlan: the cache-backed sweep path shared by mbserve and `mbsim --sweep
// --cache-dir`. A warm re-run replays byte-identical entries, an
// interrupted one simulates exactly the missing points, a different seed
// never hits, and a null cache writes nothing.
#include "serve/run_plan.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace mb::serve {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty cache directory unique to this test and process.
std::string freshDir(const char* tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "mb_run_plan_" + info->name() + "_" +
                          tag + "." + std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

/// Four distinct points: a 2x2 (nW, nB) grid on the baseline preset.
JobPlan gridPlan(std::uint64_t seed) {
  JobSpec spec;
  spec.workload = "429.mcf";
  spec.instrs = 3000;
  spec.seed = seed;
  spec.hasSeed = true;
  spec.nw = {1, 2};
  spec.nb = {1, 2};
  JobPlan plan;
  analysis::DiagnosticEngine diags;
  EXPECT_TRUE(planJob(spec, &plan, diags)) << diags.renderText();
  return plan;
}

std::vector<PointResult> run(const JobPlan& plan, ResultCache* cache,
                             sim::SweepOptions opts = {}) {
  SnapshotLru lru(0);
  opts.jobs = 2;
  return runPlan(plan, cache, lru, opts, /*shards=*/1);
}

std::size_t countCached(const std::vector<PointResult>& outs) {
  std::size_t n = 0;
  for (const auto& o : outs) n += o.cached ? 1 : 0;
  return n;
}

TEST(RunPlan, WarmRerunIsAllHitsWithIdenticalBytes) {
  const JobPlan plan = gridPlan(7);
  ASSERT_EQ(plan.points.size(), 4u);
  ResultCache cache(freshDir("c"));
  ASSERT_TRUE(cache.ok());

  const auto cold = run(plan, &cache);
  ASSERT_EQ(cold.size(), 4u);
  for (const auto& o : cold) ASSERT_TRUE(o.ok) << o.error;
  EXPECT_EQ(countCached(cold), 0u);
  EXPECT_EQ(cache.entries(), 4u);

  const auto warm = run(plan, &cache);
  ASSERT_EQ(warm.size(), 4u);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].cached) << i;
    EXPECT_TRUE(warm[i].ok) << i;
    EXPECT_EQ(warm[i].json, cold[i].json) << i;  // byte identity
  }
}

TEST(RunPlan, DeletedEntriesAreExactlyTheOnesResimulated) {
  const JobPlan plan = gridPlan(7);
  const std::string dir = freshDir("c");
  ResultCache cache(dir);
  ASSERT_TRUE(cache.ok());
  const auto full = run(plan, &cache);
  ASSERT_EQ(cache.entries(), 4u);

  // An interrupted sweep: only some points made it into the cache.
  std::size_t deleted = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (deleted == 2) break;
    if (entry.path().extension() != ".mbr") continue;
    fs::remove(entry.path());
    ++deleted;
  }
  ASSERT_EQ(deleted, 2u);
  ASSERT_EQ(cache.entries(), 2u);

  std::vector<sim::SweepProgress> progress;
  sim::SweepOptions opts;
  opts.onProgress = [&](const sim::SweepProgress& p) { progress.push_back(p); };
  const auto resumed = run(plan, &cache, opts);
  EXPECT_EQ(countCached(resumed), 2u);
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_TRUE(resumed[i].ok) << resumed[i].error;
    EXPECT_EQ(resumed[i].json, full[i].json) << i;
  }
  EXPECT_EQ(cache.entries(), 4u);

  // Progress counts over the whole plan: one call for the two hits, then
  // one per simulated point.
  ASSERT_EQ(progress.size(), 3u);
  EXPECT_EQ(progress[0].done, 2u);
  EXPECT_EQ(progress.back().done, 4u);
  for (const auto& p : progress) EXPECT_EQ(p.total, 4u);
}

TEST(RunPlan, DifferentSeedNeverHits) {
  ResultCache cache(freshDir("c"));
  ASSERT_TRUE(cache.ok());
  run(gridPlan(7), &cache);
  const auto other = run(gridPlan(8), &cache);
  EXPECT_EQ(countCached(other), 0u);
  for (const auto& o : other) EXPECT_TRUE(o.ok) << o.error;
  EXPECT_EQ(cache.entries(), 8u);
}

TEST(RunPlan, NullCacheWritesNothing) {
  const JobPlan plan = gridPlan(7);
  ResultCache cache(freshDir("c"));
  ASSERT_TRUE(cache.ok());
  const auto plain = run(plan, nullptr);
  EXPECT_EQ(countCached(plain), 0u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().stores, 0);

  // Same bytes as the memoized path, which then stores every point.
  const auto memo = run(plan, &cache);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_TRUE(plain[i].ok) << plain[i].error;
    EXPECT_EQ(plain[i].json, memo[i].json) << i;
  }
  EXPECT_EQ(cache.entries(), 4u);
}

// A warm-up capture that trips an MB_CHECK is that point's failure: it runs
// under the point's own trap, so the plan finishes, the healthy point still
// runs, and progress still reaches the plan's total.
TEST(RunPlan, FailedWarmupCaptureIsAFailedPoint) {
  JobPlan plan;
  for (const std::string name : {"trace:/nonexistent/mb_run_plan", "429.mcf"}) {
    const auto workload = sim::workloadByName(name);
    ASSERT_TRUE(workload.has_value()) << name;
    sim::SweepPoint p;
    p.label = name;
    p.cfg = sim::tsiBaselineConfig();
    p.cfg.core.maxInstrs = 3000;
    p.workload = *workload;
    sim::applyWorkloadShape(p.cfg, p.workload);
    p.opts.warmupRecords = 100;
    plan.points.push_back(std::move(p));
  }
  std::vector<sim::SweepProgress> progress;
  sim::SweepOptions opts;
  opts.onProgress = [&](const sim::SweepProgress& p) { progress.push_back(p); };
  const auto outs = run(plan, nullptr, opts);
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_FALSE(outs[0].ok);
  EXPECT_NE(outs[0].error.find("MB-TRC-001"), std::string::npos) << outs[0].error;
  EXPECT_TRUE(outs[1].ok) << outs[1].error;
  ASSERT_FALSE(progress.empty());
  EXPECT_EQ(progress.back().done, 2u);
  EXPECT_EQ(progress.back().failed, 1u);
}

}  // namespace
}  // namespace mb::serve
