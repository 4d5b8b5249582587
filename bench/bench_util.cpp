#include "bench_util.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "common/check.hpp"
#include "common/string_util.hpp"
#include "serve/run_plan.hpp"
#include "sim/journal.hpp"

namespace mb::bench {

namespace {

std::int64_t positiveIntArg(const char* flag, const char* value) {
  const auto v = parseInt(value, 1, INT_MAX);
  if (!v) {
    std::fprintf(stderr, "%s expects a positive integer, got \"%s\"\n", flag, value);
    std::exit(2);
  }
  return *v;
}

}  // namespace

int jobsFromArgs(int argc, char** argv) {
  int jobs = 0;  // 0: let resolveJobs pick MB_JOBS / hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      value = arg + 7;
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "unrecognized argument: %s (benches take --jobs N)\n",
                   arg);
      std::exit(2);
    }
    jobs = static_cast<int>(positiveIntArg("--jobs", value));
  }
  return sim::resolveJobs(jobs);
}

BenchArgs parseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  if (const char* env = std::getenv("MB_WARMUP"))
    args.warmup = positiveIntArg("MB_WARMUP", env);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      args.jobs = static_cast<int>(positiveIntArg("--jobs", arg + 7));
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      args.jobs = static_cast<int>(positiveIntArg("--jobs", argv[++i]));
    } else if (std::strncmp(arg, "--warmup=", 9) == 0) {
      args.warmup = positiveIntArg("--warmup", arg + 9);
    } else {
      std::fprintf(stderr,
                   "unrecognized argument: %s (this bench takes --jobs N, "
                   "--warmup N)\n",
                   arg);
      std::exit(2);
    }
  }
  args.jobs = sim::resolveJobs(args.jobs);
  return args;
}

void printBanner(const std::string& artifact, const std::string& what) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), what.c_str());
  std::printf("slice preset: %s (set MB_SLICE=full for long runs)\n",
              sim::slicePresetFromEnv() == sim::SlicePreset::Full ? "full" : "fast");
  std::printf("================================================================\n");
}

namespace {

/// One sweep point of `workload` on `cfg`: processor shape and channel
/// population from sim::applyWorkloadShape, instruction slice from MB_SLICE.
sim::SweepPoint slicedPoint(std::string label, sim::SystemConfig cfg,
                            const sim::WorkloadSpec& workload) {
  sim::applyWorkloadShape(cfg, workload);
  sim::applySlice(cfg, sim::slicePresetFromEnv(),
                  workload.kind != sim::WorkloadSpec::Kind::SingleSpec);
  return {std::move(label), std::move(cfg), workload};
}

/// Expand a named workload into its constituent sweep points: one per
/// single-app run of a SPEC group, else the one point sim::workloadByName
/// resolves.
std::vector<sim::SweepPoint> workloadPoints(const std::string& name,
                                            const sim::SystemConfig& cfg) {
  auto groupPoints = [&](const std::vector<std::string>& apps) {
    std::vector<sim::SweepPoint> pts;
    pts.reserve(apps.size());
    for (const auto& app : apps)
      pts.push_back(slicedPoint(name + "/" + app, cfg, sim::WorkloadSpec::spec(app)));
    return pts;
  };

  using trace::SpecGroup;
  if (name == "spec-high") return groupPoints(trace::specGroupMembers(SpecGroup::High));
  if (name == "spec-med") return groupPoints(trace::specGroupMembers(SpecGroup::Med));
  if (name == "spec-low") return groupPoints(trace::specGroupMembers(SpecGroup::Low));
  if (name == "spec-all") {
    std::vector<std::string> all;
    for (const auto& p : trace::specProfiles()) all.push_back(p.name);
    return groupPoints(all);
  }
  const auto workload = sim::workloadByName(name);
  MB_CHECK_MSG(workload.has_value(), "unknown bench workload \"%s\"", name.c_str());
  return {slicedPoint(name, cfg, *workload)};
}

}  // namespace

std::size_t SweepPlan::add(const std::string& workload, const sim::SystemConfig& cfg) {
  MB_CHECK(!ran_);
  auto pts = workloadPoints(workload, cfg);
  Cell cell;
  cell.firstPoint = points_.size();
  cell.numPoints = pts.size();
  for (auto& p : pts) points_.push_back(std::move(p));
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

void SweepPlan::enableWarmup(std::int64_t records) {
  MB_CHECK(!ran_ && records > 0);
  warmupRecords_ = records;
}

void SweepPlan::run(int jobs) {
  MB_CHECK(!ran_);
  serve::JobPlan plan;
  plan.points = std::move(points_);
  for (auto& p : plan.points) p.opts.warmupRecords = warmupRecords_;
  // No result cache. The LRU's leases pin every warm-up snapshot until the
  // sweep ends, so a zero budget still shares each one across its points.
  serve::SnapshotLru snapshots(0);
  sim::SweepOptions opts;
  opts.jobs = jobs;
  opts.progress = true;
  const auto outs = serve::runPlan(plan, nullptr, snapshots, opts, /*shards=*/1);
  if (warmupRecords_ > 0)
    std::fprintf(stderr,
                 "[sweep] warmup: %lld records/core, %lld snapshots shared "
                 "across %zu points\n",
                 static_cast<long long>(warmupRecords_),
                 static_cast<long long>(snapshots.stats().misses), outs.size());

  std::vector<sim::RunResult> results(outs.size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (outs[i].ok && sim::runResultFromJson(outs[i].json, &results[i])) continue;
    ++failed;
    std::fprintf(stderr, "sweep point %zu (%s) failed: %s\n", i,
                 plan.points[i].label.c_str(),
                 outs[i].ok ? "result does not decode" : outs[i].error.c_str());
  }
  MB_CHECK_MSG(failed == 0, "%zu of %zu sweep points failed (see stderr)", failed,
               outs.size());
  for (auto& cell : cells_) {
    const auto first = results.begin() + static_cast<std::ptrdiff_t>(cell.firstPoint);
    cell.results.assign(std::make_move_iterator(first),
                        std::make_move_iterator(
                            first + static_cast<std::ptrdiff_t>(cell.numPoints)));
  }
  ran_ = true;
}

const std::vector<sim::RunResult>& SweepPlan::results(std::size_t cell) const {
  MB_CHECK(ran_ && cell < cells_.size());
  return cells_[cell].results;
}

std::vector<sim::RunResult> runWorkload(const std::string& name,
                                        const sim::SystemConfig& cfg) {
  SweepPlan plan;
  const std::size_t cell = plan.add(name, cfg);
  plan.run(0);
  return plan.results(cell);
}

PowerBreakdownW powerBreakdown(const std::vector<sim::RunResult>& runs) {
  PowerBreakdownW p;
  for (const auto& r : runs) {
    const double secPj = toSeconds(r.elapsed) * 1e12;  // pJ -> W divisor
    if (secPj <= 0) continue;
    p.processor += r.energy.processor / secPj;
    p.actPre += r.energy.dramActPre / secPj;
    p.dramStatic += r.energy.dramStatic / secPj;
    p.rdwr += r.energy.dramRdWr / secPj;
    p.io += r.energy.io / secPj;
  }
  const auto n = static_cast<double>(runs.size());
  p.processor /= n;
  p.actPre /= n;
  p.dramStatic /= n;
  p.rdwr /= n;
  p.io /= n;
  return p;
}

double meanOf(const std::vector<sim::RunResult>& runs,
              double (*metric)(const sim::RunResult&)) {
  double sum = 0.0;
  for (const auto& r : runs) sum += metric(r);
  return sum / static_cast<double>(runs.size());
}

}  // namespace mb::bench
