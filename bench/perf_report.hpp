// JSON/baseline emission and RSS sampling for mbperf, extracted from the
// harness binary so tests can pin the writer: a long preset name must never
// truncate into invalid JSON (MBPERF1 consumers parse the record), and the
// baseline's preset list must track the shipped preset table.
//
// RSS semantics: `ru_maxrss` is a process-lifetime HIGH-WATER mark, so the
// absolute value sampled after preset N includes every earlier preset's
// footprint. The harness therefore reports per-preset DELTAS — the growth of
// the high-water mark attributable to that preset's runs (0 when it fits
// inside an earlier peak) — under the existing `peakRssKiB` key; only the
// `totals` block carries the process-wide peak.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <istream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"

namespace mb::bench {

using analysis::jsonEscape;

struct PresetPerf {
  std::string preset;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
  double eventsPerSec = 0.0;
  double simulatedCyclesPerSec = 0.0;
  long peakRssKiB = 0;  // delta of the process high-water mark (see header)
};

struct ReportMeta {
  std::string workload;
  std::int64_t instrs = 0;
  int repeat = 0;
};

/// Serve-path metrics (mbperf --serve): how much the mbserve memo cache and
/// warmup-snapshot LRU actually buy on this host. `coldSeconds` is the full
/// simulate + serialize + store path for one point; `cachedSeconds` is the
/// memo lookup returning the identical bytes. Best-of timings like the
/// preset table.
struct ServePerf {
  double coldSeconds = 0.0;
  double cachedSeconds = 0.0;
  std::int64_t lruHits = 0;
  std::int64_t lruMisses = 0;
};

/// Sharded-engine metrics (mbperf --shard-bench): wall clock of the SAME
/// simulation at --shards=1 vs --shards=N (DESIGN.md §14). The outputs are
/// byte-identical by construction, so `events` is a single number and the
/// ratio is pure engine overhead/speedup. `hardwareThreads` records
/// sim::hostCpuCount(), the CPUs this process may use — without it the
/// ratio is uninterpretable: a 1-core CI box CANNOT show a speedup (the
/// pool and the main thread time-slice one CPU and the barrier crossings
/// are pure overhead), which is a property of the host, not a regression.
struct ShardPerf {
  int shards = 0;
  int channels = 0;
  unsigned hardwareThreads = 0;
  double serialSeconds = 0.0;
  double shardedSeconds = 0.0;
  std::uint64_t events = 0;
};

/// Process peak RSS in KiB. ru_maxrss is reported in KiB on Linux but in
/// BYTES on macOS; every consumer goes through this helper so the unit quirk
/// lives in exactly one place.
inline long currentPeakRssKiB() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return ru.ru_maxrss / 1024;
#else
  return ru.ru_maxrss;
#endif
}

/// %.6g rendering of a double. A 64-byte buffer cannot truncate this format;
/// the old whole-record snprintf used a 256-byte line buffer and ignored the
/// return value, so a long preset name silently dropped the record's tail —
/// including the closing braces — and produced unparseable JSON.
inline std::string fmtG(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// The MBPERF1 record. Built with unbounded string appends — no fixed-size
/// line buffer anywhere — so arbitrarily long preset names stay valid JSON.
/// `serve` (optional) adds a "serve" block with the memo-cache cold/cached
/// latencies, the derived speedup, and the snapshot-LRU hit rate. `shard`
/// (optional) adds a "shard" block with the serial vs sharded wall clock,
/// both events/sec figures, the derived speedup, and the host's hardware
/// thread count for context.
inline std::string perfJson(const std::vector<PresetPerf>& perfs,
                            const ReportMeta& meta, long totalPeakRssKiB,
                            const ServePerf* serve = nullptr,
                            const ShardPerf* shard = nullptr) {
  double totalWall = 0.0;
  std::uint64_t totalEvents = 0;
  for (const auto& p : perfs) {
    totalWall += p.wallSeconds;
    totalEvents += p.events;
  }
  std::ostringstream out;
  out << "{\"format\":\"MBPERF1\",\"workload\":\"" << jsonEscape(meta.workload)
      << "\",\"instrs\":" << meta.instrs << ",\"repeat\":" << meta.repeat
      << ",\"presets\":[";
  for (std::size_t i = 0; i < perfs.size(); ++i) {
    const auto& p = perfs[i];
    if (i != 0) out << ',';
    out << "{\"preset\":\"" << jsonEscape(p.preset)
        << "\",\"wallSeconds\":" << fmtG(p.wallSeconds)
        << ",\"events\":" << p.events
        << ",\"eventsPerSec\":" << fmtG(p.eventsPerSec)
        << ",\"simulatedCyclesPerSec\":" << fmtG(p.simulatedCyclesPerSec)
        << ",\"peakRssKiB\":" << p.peakRssKiB << '}';
  }
  out << ']';
  if (serve != nullptr) {
    const std::int64_t lruTotal = serve->lruHits + serve->lruMisses;
    out << ",\"serve\":{\"coldSeconds\":" << fmtG(serve->coldSeconds)
        << ",\"cachedSeconds\":" << fmtG(serve->cachedSeconds)
        << ",\"speedup\":"
        << fmtG(serve->cachedSeconds > 0.0
                    ? serve->coldSeconds / serve->cachedSeconds
                    : 0.0)
        << ",\"lruHits\":" << serve->lruHits
        << ",\"lruMisses\":" << serve->lruMisses << ",\"lruHitRate\":"
        << fmtG(lruTotal > 0 ? static_cast<double>(serve->lruHits) /
                                   static_cast<double>(lruTotal)
                             : 0.0)
        << '}';
  }
  if (shard != nullptr) {
    out << ",\"shard\":{\"shards\":" << shard->shards
        << ",\"channels\":" << shard->channels
        << ",\"hardwareThreads\":" << shard->hardwareThreads
        << ",\"serialSeconds\":" << fmtG(shard->serialSeconds)
        << ",\"shardedSeconds\":" << fmtG(shard->shardedSeconds)
        << ",\"speedup\":"
        << fmtG(shard->shardedSeconds > 0.0
                    ? shard->serialSeconds / shard->shardedSeconds
                    : 0.0)
        << ",\"events\":" << shard->events << ",\"serialEventsPerSec\":"
        << fmtG(shard->serialSeconds > 0.0
                    ? static_cast<double>(shard->events) / shard->serialSeconds
                    : 0.0)
        << ",\"shardedEventsPerSec\":"
        << fmtG(shard->shardedSeconds > 0.0
                    ? static_cast<double>(shard->events) / shard->shardedSeconds
                    : 0.0)
        << '}';
  }
  out << ",\"totals\":{\"wallSeconds\":" << fmtG(totalWall)
      << ",\"events\":" << totalEvents << ",\"eventsPerSec\":"
      << fmtG(totalWall > 0.0 ? static_cast<double>(totalEvents) / totalWall
                              : 0.0)
      << ",\"peakRssKiB\":" << totalPeakRssKiB << "}}\n";
  return out.str();
}

/// Parse a perf_baseline.txt stream: `name events/sec` lines, '#' comments.
inline std::map<std::string, double> readBaseline(std::istream& in) {
  std::map<std::string, double> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    double eps = 0.0;
    if (ls >> name >> eps) out[name] = eps;
  }
  return out;
}

}  // namespace mb::bench
