#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "common/check.hpp"

namespace mb::bench {

namespace {

std::int64_t positiveIntArg(const char* flag, const char* value) {
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || v < 1) {
    std::fprintf(stderr, "%s expects a positive integer, got \"%s\"\n", flag, value);
    std::exit(2);
  }
  return v;
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
    } else if (std::strcmp(arg, "--warmup-cold") == 0) {
      args.warmupCold = true;
    } else {
      std::fprintf(stderr,
                   "unrecognized argument: %s (this bench takes --jobs N, "
                   "--warmup N, --warmup-cold)\n",
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

sim::SystemConfig multicoreConfig(sim::SystemConfig base) {
  const auto phy = interface::PhyModel::make(base.phy);
  base.hier.numCores = 64;
  base.hier.coresPerCluster = 4;
  base.channels = phy.channels;  // 16, or 8 for the pin-limited DDR3-PCB
  return base;
}

sim::SystemConfig sliced(sim::SystemConfig cfg, bool multicore) {
  sim::applySlice(cfg, sim::slicePresetFromEnv(), multicore);
  return cfg;
}

namespace {

/// Expand a named workload into its constituent sweep points (one per
/// single-app slice run, or one multicore run for mixes/kernels), applying
/// the same slicing rules the serial path used.
std::vector<sim::SweepPoint> workloadPoints(const std::string& name,
                                            const sim::SystemConfig& cfg) {
  using trace::SpecGroup;
  auto groupPoints = [&](const std::vector<std::string>& apps) {
    const auto c = sliced(cfg, false);
    std::vector<sim::SweepPoint> pts;
    pts.reserve(apps.size());
    for (const auto& app : apps)
      pts.push_back({name + "/" + app, c, sim::WorkloadSpec::spec(app)});
    return pts;
  };

  if (name == "spec-high") return groupPoints(trace::specGroupMembers(SpecGroup::High));
  if (name == "spec-med") return groupPoints(trace::specGroupMembers(SpecGroup::Med));
  if (name == "spec-low") return groupPoints(trace::specGroupMembers(SpecGroup::Low));
  if (name == "spec-all") {
    std::vector<std::string> all;
    for (const auto& p : trace::specProfiles()) all.push_back(p.name);
    return groupPoints(all);
  }
  if (name == "mix-high" || name == "mix-blend") {
    return {{name, sliced(multicoreConfig(cfg), true), sim::WorkloadSpec::mix(name)}};
  }
  for (auto kind : {trace::MtKind::Radix, trace::MtKind::Fft, trace::MtKind::Canneal,
                    trace::MtKind::TpcC, trace::MtKind::TpcH}) {
    if (name == trace::mtKindName(kind)) {
      return {{name, sliced(multicoreConfig(cfg), true), sim::WorkloadSpec::mt(kind)}};
    }
  }
  // Single SPEC application.
  return {{name, sliced(cfg, false), sim::WorkloadSpec::spec(name)}};
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

void SweepPlan::enableWarmup(std::int64_t records, bool reuseSnapshots) {
  MB_CHECK(!ran_ && records > 0);
  warmupRecords_ = records;
  warmupReuse_ = reuseSnapshots;
}

void SweepPlan::run(int jobs) {
  MB_CHECK(!ran_);
  if (warmupRecords_ > 0) {
    std::size_t captured = 0;
    for (auto& p : points_) {
      p.opts.warmupRecords = warmupRecords_;
      if (!warmupReuse_) continue;
      const std::uint64_t key =
          sim::warmupKeyHash(p.cfg, p.workload, warmupRecords_);
      auto it = warmupSnaps_.find(key);
      if (it == warmupSnaps_.end()) {
        // First point with this (workload, seed, processor shape): run the
        // functional warmup once and snapshot it. Every other grid point
        // sharing the key restores the snapshot instead of replaying.
        it = warmupSnaps_
                 .emplace(key, sim::captureWarmupSnapshot(p.cfg, p.workload,
                                                          warmupRecords_))
                 .first;
        ++captured;
      }
      p.opts.warmupRestoreBuf = &it->second;
    }
    if (warmupReuse_)
      std::fprintf(stderr,
                   "[sweep] warmup: %lld records/core, %zu snapshots shared "
                   "across %zu points\n",
                   static_cast<long long>(warmupRecords_), captured,
                   points_.size());
  }
  sim::SweepOptions opts;
  opts.jobs = jobs;
  opts.progress = true;
  auto results = sim::SweepRunner(opts).runAll(points_);
  for (auto& cell : cells_) {
    cell.results.assign(
        std::make_move_iterator(results.begin() + static_cast<std::ptrdiff_t>(cell.firstPoint)),
        std::make_move_iterator(results.begin() +
                                static_cast<std::ptrdiff_t>(cell.firstPoint + cell.numPoints)));
  }
  ran_ = true;
}

const std::vector<sim::RunResult>& SweepPlan::results(std::size_t cell) const {
  MB_CHECK(ran_ && cell < cells_.size());
  return cells_[cell].results;
}

std::vector<sim::RunResult> runWorkload(const std::string& name,
                                        const sim::SystemConfig& cfg) {
  return sim::SweepRunner().runAll(workloadPoints(name, cfg));
}

double relative(const std::vector<sim::RunResult>& test,
                const std::vector<sim::RunResult>& baseline,
                double (*metric)(const sim::RunResult&)) {
  return sim::meanRatio(test, baseline, metric);
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
