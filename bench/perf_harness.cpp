// mbperf — host-performance harness for the simulator itself.
//
// Runs every shipped preset for a fixed instruction slice and reports how
// fast the ENGINE executes: wall seconds, dispatched events/sec, simulated
// core-cycles/sec, and RSS, per preset and in aggregate, as both a stdout
// table and a machine-readable BENCH_PERF.json (format MBPERF1). Per-preset
// `peakRssKiB` is the DELTA of the process peak-RSS high-water mark across
// that preset's runs (not the inherited absolute peak); the totals block
// carries the process-wide peak. See bench/perf_report.hpp.
// tools/ci.sh records it on every gate run (non-gating) so the throughput
// trajectory of the event engine and MC arbitration loop is visible PR over
// PR; bench/perf_baseline.txt pins the last accepted events/sec per preset
// and --baseline diffs against it with a generous machine-noise tolerance.
//
//   mbperf [--out=BENCH_PERF.json] [--workload=429.mcf] [--instrs=N]
//          [--repeat=N] [--preset=NAME] [--baseline=FILE] [--tolerance=0.25]
//          [--update-baseline=FILE]
//
// Timing methodology: each preset runs `repeat` times and the FASTEST run is
// reported (minimum wall time estimates the cost floor; means absorb
// scheduler noise from the host). Simulation output is deterministic, so
// repeats are free of variance in work done. Baseline diffs are warn-only:
// perf regressions should be loud in CI logs but a shared, throttled, or
// slow host must not fail the gate.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/perf_report.hpp"
#include "common/version.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_lru.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace mb;
using bench::PresetPerf;
using bench::ServePerf;
using bench::ShardPerf;
using bench::currentPeakRssKiB;

struct Options {
  std::string out = "BENCH_PERF.json";
  std::string workload = "429.mcf";
  std::int64_t instrs = 10000;
  int repeat = 3;
  std::string presetFilter;     // empty = all
  std::string baselinePath;     // diff against this (warn-only)
  std::string updateBaseline;   // write events/sec table here
  double tolerance = 0.25;
  bool serve = false;           // measure the mbserve memo/LRU path too
  int shardBench = 0;           // >0: measure --shards=N vs serial too
};

[[noreturn]] void usageError(const std::string& msg) {
  std::fprintf(stderr, "mbperf: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: mbperf [--out=FILE] [--workload=NAME] [--instrs=N] "
               "[--repeat=N]\n              [--preset=NAME] [--baseline=FILE] "
               "[--tolerance=FRAC] [--update-baseline=FILE]\n"
               "              [--serve] [--shard-bench[=N]]\n");
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* flag) -> std::string {
      return a.substr(std::strlen(flag));
    };
    if (a.rfind("--out=", 0) == 0) {
      o.out = val("--out=");
    } else if (a.rfind("--workload=", 0) == 0) {
      o.workload = val("--workload=");
    } else if (a.rfind("--instrs=", 0) == 0) {
      o.instrs = std::atoll(val("--instrs=").c_str());
      if (o.instrs <= 0) usageError("--instrs must be positive");
    } else if (a.rfind("--repeat=", 0) == 0) {
      o.repeat = std::atoi(val("--repeat=").c_str());
      if (o.repeat <= 0) usageError("--repeat must be positive");
    } else if (a.rfind("--preset=", 0) == 0) {
      o.presetFilter = val("--preset=");
    } else if (a.rfind("--baseline=", 0) == 0) {
      o.baselinePath = val("--baseline=");
    } else if (a.rfind("--update-baseline=", 0) == 0) {
      o.updateBaseline = val("--update-baseline=");
    } else if (a.rfind("--tolerance=", 0) == 0) {
      o.tolerance = std::atof(val("--tolerance=").c_str());
      if (o.tolerance <= 0.0) usageError("--tolerance must be positive");
    } else if (a == "--serve") {
      o.serve = true;
    } else if (a == "--shard-bench") {
      o.shardBench = 4;
    } else if (a.rfind("--shard-bench=", 0) == 0) {
      o.shardBench = std::atoi(val("--shard-bench=").c_str());
      if (o.shardBench < 2) usageError("--shard-bench needs at least 2 shards");
    } else {
      usageError("unknown argument: " + a);
    }
  }
  return o;
}

PresetPerf measure(const sim::NamedConfig& preset, const Options& o) {
  sim::SystemConfig cfg = preset.cfg;
  cfg.core.maxInstrs = o.instrs;

  PresetPerf p;
  p.preset = preset.name;
  // ru_maxrss is a process-lifetime high-water mark; sample it before the
  // runs and report the delta so this preset's value never inherits an
  // earlier preset's peak (bench/perf_report.hpp has the full semantics).
  const long rssBefore = currentPeakRssKiB();
  double bestWall = 0.0;
  for (int rep = 0; rep < o.repeat; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const sim::RunResult r = sim::runSpecApp(o.workload, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || wall < bestWall) {
      bestWall = wall;
      p.events = r.eventsProcessed;
      const double simCycles =
          static_cast<double>(r.elapsed) / static_cast<double>(cfg.core.cyclePs);
      p.simulatedCyclesPerSec = wall > 0.0 ? simCycles / wall : 0.0;
    }
  }
  p.wallSeconds = bestWall;
  p.eventsPerSec =
      bestWall > 0.0 ? static_cast<double>(p.events) / bestWall : 0.0;
  p.peakRssKiB = currentPeakRssKiB() - rssBefore;
  return p;
}

/// Serve-path measurement: how much the mbserve memo cache and the
/// warmup-snapshot LRU buy on this host, on the baseline preset. Cold is the
/// exact daemon miss path (simulate + serialize + store); cached is the memo
/// lookup returning the same bytes. Both are best-of-`repeat` like the
/// preset table. The LRU exercise pays the warmup capture once and then
/// re-acquires, mirroring a sweep grid sharing one snapshot.
ServePerf measureServe(const Options& o) {
  sim::SystemConfig cfg = sim::tsiBaselineConfig();
  cfg.core.maxInstrs = o.instrs;
  const auto wl = sim::WorkloadSpec::spec(o.workload);
  const std::uint64_t key = serve::ResultCache::resultKey(
      sim::systemConfigHash(cfg, wl), wl.name, cfg.seed, 0, versionString());

  const std::string dir = o.out + ".serve-cache";
  serve::ResultCache cache(dir);
  if (!cache.ok()) {
    std::fprintf(stderr, "mbperf: cannot create serve cache dir %s\n",
                 dir.c_str());
    std::exit(1);
  }
  cache.flush();

  ServePerf s;
  std::string cold;
  for (int rep = 0; rep < o.repeat; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    cold = sim::runResultToJson(sim::runSimulation(cfg, wl));
    cache.store(key, cold);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || wall < s.coldSeconds) s.coldSeconds = wall;
  }
  for (int rep = 0; rep < o.repeat; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto served = cache.lookup(key);
    const auto t1 = std::chrono::steady_clock::now();
    if (!served || *served != cold) {
      std::fprintf(stderr,
                   "mbperf: serve cache returned wrong bytes — memo path is "
                   "broken\n");
      std::exit(1);
    }
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || wall < s.cachedSeconds) s.cachedSeconds = wall;
  }
  cache.flush();
  std::remove(dir.c_str());

  // Snapshot LRU: one generation, `repeat` re-acquires from the same key —
  // the shape of a grid query warming each workload exactly once.
  constexpr std::int64_t kWarm = 2000;
  serve::SnapshotLru lru(256u << 20);
  const std::uint64_t wkey = sim::warmupKeyHash(cfg, wl, kWarm);
  for (int rep = 0; rep < o.repeat + 1; ++rep)
    lru.acquire(wkey, [&] { return sim::captureWarmupSnapshot(cfg, wl, kWarm); })
        .release();
  const auto lruStats = lru.stats();
  s.lruHits = lruStats.hits;
  s.lruMisses = lruStats.misses;
  return s;
}

/// Sharded-engine measurement (DESIGN.md §14): the tsi-baseline preset under
/// the multicore RADIX workload — the fig.8 configuration, where all 16
/// channels carry traffic — timed at --shards=1 and --shards=N with
/// best-of-`repeat` walls. Outputs are byte-identical by construction (the
/// ShardDifferential tests gate that), so the two runs do exactly the same
/// simulation work and the wall ratio isolates the engine. The ratio only
/// means something relative to the host's hardware thread count, which is
/// recorded alongside: with fewer free cores than threads the barrier
/// crossings are pure overhead and a ratio below 1 is expected, not a
/// regression — hence warn-only, like every other mbperf comparison.
ShardPerf measureShard(const Options& o) {
  sim::SystemConfig cfg = sim::tsiBaselineConfig();
  cfg.core.maxInstrs = o.instrs;
  cfg.hier.numCores = 64;
  cfg.hier.coresPerCluster = 4;
  const auto wl = sim::WorkloadSpec::mt(trace::MtKind::Radix);

  ShardPerf s;
  s.shards = o.shardBench;
  s.channels = sim::resolvedChannels(cfg, wl);
  s.hardwareThreads = static_cast<unsigned>(sim::hostCpuCount());
  for (int pass = 0; pass < 2; ++pass) {
    sim::RunOptions ro;
    ro.shards = pass == 0 ? 1 : o.shardBench;
    double best = 0.0;
    for (int rep = 0; rep < o.repeat; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const sim::RunResult r = sim::runSimulation(cfg, wl, ro);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      if (rep == 0 || wall < best) best = wall;
      s.events = r.eventsProcessed;  // identical across shard counts
    }
    (pass == 0 ? s.serialSeconds : s.shardedSeconds) = best;
  }
  return s;
}

void writeJson(const std::vector<PresetPerf>& perfs, const Options& o,
               const ServePerf* serve, const ShardPerf* shard) {
  std::ofstream out(o.out, std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "mbperf: cannot write %s\n", o.out.c_str());
    std::exit(1);
  }
  out << bench::perfJson(perfs, {o.workload, o.instrs, o.repeat},
                         currentPeakRssKiB(), serve, shard);
}

std::map<std::string, double> readBaseline(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "mbperf: WARN cannot read baseline %s\n", path.c_str());
    return {};
  }
  return bench::readBaseline(in);
}

// Warn-only comparison: a slower-than-tolerance preset is flagged loudly but
// never fails the run — CI hosts are shared and noisy. Returns the number of
// flagged presets so callers that WANT to gate can.
int diffBaseline(const std::vector<PresetPerf>& perfs, const Options& o) {
  const auto base = readBaseline(o.baselinePath);
  if (base.empty()) return 0;
  int flagged = 0;
  for (const auto& p : perfs) {
    const auto it = base.find(p.preset);
    if (it == base.end()) {
      std::printf("perf-diff %-34s NEW (no baseline entry)\n", p.preset.c_str());
      continue;
    }
    const double ratio = it->second > 0.0 ? p.eventsPerSec / it->second : 0.0;
    if (ratio < 1.0 - o.tolerance) {
      ++flagged;
      std::printf(
          "perf-diff %-34s WARN %.2fx baseline (%.3g vs %.3g events/s, "
          "tolerance %.0f%%)\n",
          p.preset.c_str(), ratio, p.eventsPerSec, it->second,
          o.tolerance * 100.0);
    } else if (ratio > 1.0 + o.tolerance) {
      std::printf(
          "perf-diff %-34s NOTE %.2fx baseline — consider refreshing "
          "bench/perf_baseline.txt\n",
          p.preset.c_str(), ratio);
    } else {
      std::printf("perf-diff %-34s ok %.2fx baseline\n", p.preset.c_str(), ratio);
    }
  }
  return flagged;
}

void writeBaseline(const std::vector<PresetPerf>& perfs, const Options& o) {
  std::ofstream out(o.updateBaseline, std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "mbperf: cannot write %s\n", o.updateBaseline.c_str());
    std::exit(1);
  }
  out << "# mbperf events/sec baseline (workload=" << o.workload
      << " instrs=" << o.instrs << ").\n"
      << "# Regenerate on a quiet host: mbperf --update-baseline=bench/"
         "perf_baseline.txt\n";
  for (const auto& p : perfs)
    out << p.preset << ' ' << bench::fmtG(p.eventsPerSec) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parseArgs(argc, argv);

  std::vector<PresetPerf> perfs;
  std::printf("mbperf: workload=%s instrs=%lld repeat=%d (best-of)\n",
              o.workload.c_str(), static_cast<long long>(o.instrs), o.repeat);
  std::printf("%-34s %10s %12s %14s %16s %10s\n", "preset", "wall-s", "events",
              "events/s", "sim-cycles/s", "rss-KiB");
  bool matched = false;
  for (const auto& preset : sim::shippedPresets()) {
    if (!o.presetFilter.empty() && preset.name != o.presetFilter) continue;
    matched = true;
    const PresetPerf p = measure(preset, o);
    std::printf("%-34s %10.4f %12llu %14.4g %16.4g %10ld\n", p.preset.c_str(),
                p.wallSeconds, static_cast<unsigned long long>(p.events),
                p.eventsPerSec, p.simulatedCyclesPerSec, p.peakRssKiB);
    perfs.push_back(p);
  }
  if (!matched) usageError("--preset matched no shipped preset");

  ServePerf servePerf;
  if (o.serve) {
    servePerf = measureServe(o);
    std::printf(
        "serve: cold %.4fs cached %.3gs (%.0fx) lru %lld hit / %lld miss\n",
        servePerf.coldSeconds, servePerf.cachedSeconds,
        servePerf.cachedSeconds > 0.0
            ? servePerf.coldSeconds / servePerf.cachedSeconds
            : 0.0,
        static_cast<long long>(servePerf.lruHits),
        static_cast<long long>(servePerf.lruMisses));
  }
  ShardPerf shardPerf;
  if (o.shardBench > 0) {
    shardPerf = measureShard(o);
    const double speedup = shardPerf.shardedSeconds > 0.0
                               ? shardPerf.serialSeconds / shardPerf.shardedSeconds
                               : 0.0;
    std::printf(
        "shard: serial %.4fs --shards=%d %.4fs (%.2fx) over %d channels, "
        "%u hardware threads\n",
        shardPerf.serialSeconds, shardPerf.shards, shardPerf.shardedSeconds,
        speedup, shardPerf.channels, shardPerf.hardwareThreads);
    if (speedup < 1.0 &&
        shardPerf.hardwareThreads < static_cast<unsigned>(shardPerf.shards))
      std::printf(
          "shard: NOTE only %u hardware threads for %d threads — parallel "
          "speedup needs free cores; ratio reflects the host, not the engine\n",
          shardPerf.hardwareThreads, shardPerf.shards);
  }
  writeJson(perfs, o, o.serve ? &servePerf : nullptr,
            o.shardBench > 0 ? &shardPerf : nullptr);
  std::printf("wrote %s\n", o.out.c_str());
  if (!o.updateBaseline.empty()) {
    writeBaseline(perfs, o);
    std::printf("wrote baseline %s\n", o.updateBaseline.c_str());
  }
  if (!o.baselinePath.empty()) diffBaseline(perfs, o);
  return 0;
}
