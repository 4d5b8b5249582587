#include "serve/run_plan.hpp"

#include <cstdio>
#include <exception>

#include "common/version.hpp"
#include "sim/journal.hpp"

namespace mb::serve {

std::vector<PointResult> runPlan(const JobPlan& plan, ResultCache* cache,
                                 SnapshotLru& lru, sim::SweepOptions opts,
                                 int shards) {
  const std::string version = versionString();
  const std::size_t total = plan.points.size();
  std::vector<PointResult> outs(total);
  std::vector<std::uint64_t> keys(total);
  std::vector<std::size_t> missIdx;

  std::size_t lastHit = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const sim::SweepPoint& pt = plan.points[i];
    if (cache != nullptr) {
      keys[i] = ResultCache::resultKey(sim::systemConfigHash(pt.cfg, pt.workload),
                                       plan.workloadName, pt.cfg.seed,
                                       pt.opts.warmupRecords, version);
      if (!plan.nocache) {
        if (auto hit = cache->lookup(keys[i])) {
          outs[i].cached = true;
          outs[i].ok = true;
          outs[i].json = std::move(*hit);
          lastHit = i;
          continue;
        }
      }
    }
    missIdx.push_back(i);
  }
  const std::size_t cachedCount = total - missIdx.size();
  if (cachedCount > 0 && opts.onProgress) {
    sim::SweepProgress p;
    p.done = cachedCount;
    p.total = total;
    p.index = lastHit;
    p.ok = true;
    opts.onProgress(p);
  }

  // Build the miss sweep. Warmup snapshots are shared per warmupKeyHash via
  // the LRU: the first acquire generates (outside the LRU lock), siblings
  // and sibling jobs pin the same bytes. Leases are held until the sweep
  // finishes — warmupRestoreBuf points straight into the LRU entry.
  std::vector<sim::SweepPoint> runPoints;
  std::vector<std::size_t> runIdx;  // plan index of each runPoints entry
  std::vector<SnapshotLru::Lease> leases;
  leases.reserve(missIdx.size());
  for (const std::size_t idx : missIdx) {
    sim::SweepPoint p = plan.points[idx];
    // Applied after the cache key is computed: shards cannot change results,
    // so cached entries stay valid across every --shards setting.
    p.opts.shards = shards;
    if (p.opts.warmupRecords > 0) {
      const std::uint64_t wkey =
          sim::warmupKeyHash(p.cfg, p.workload, p.opts.warmupRecords);
      try {
        leases.push_back(lru.acquire(wkey, [&p] {
          return sim::captureWarmupSnapshot(p.cfg, p.workload, p.opts.warmupRecords);
        }));
        p.opts.warmupRestoreBuf = &leases.back().bytes();
      } catch (const std::exception& e) {
        outs[idx].error = std::string("warmup snapshot failed: ") + e.what();
        continue;
      }
    }
    runPoints.push_back(std::move(p));
    runIdx.push_back(idx);
  }
  if (runPoints.empty()) return outs;

  opts.onPointDone = [&](const sim::SweepOutcome& o) {
    const std::size_t idx = runIdx[o.index];
    PointResult& out = outs[idx];
    out.ok = o.ok;
    out.canceled = o.canceled;
    if (!o.ok) {
      out.error = o.error;
      return;
    }
    out.json = sim::runResultToJson(o.result);
    if (cache != nullptr && !cache->store(keys[idx], out.json)) {
      std::fprintf(stderr, "warning: result cache store failed for %s\n",
                   plan.points[idx].label.c_str());
    }
  };
  if (opts.onProgress) {
    opts.onProgress = [&, report = std::move(opts.onProgress)](
                          const sim::SweepProgress& p) {
      sim::SweepProgress whole = p;
      whole.done += cachedCount;
      whole.total = total;
      whole.index = runIdx[p.index];
      report(whole);
    };
  }
  sim::SweepRunner(opts).run(runPoints);
  return outs;
}

}  // namespace mb::serve
