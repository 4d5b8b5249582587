#include "serve/run_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/version.hpp"
#include "sim/journal.hpp"

namespace mb::serve {

std::vector<PointResult> runPlan(const JobPlan& plan, ResultCache* cache,
                                 SnapshotLru& lru, const sim::SweepOptions& opts,
                                 int shards) {
  const std::string version = versionString();
  const std::size_t total = plan.points.size();
  std::vector<PointResult> outs(total);
  std::vector<std::uint64_t> keys(total);
  std::vector<std::size_t> missIdx;
  sim::SweepProgress progress;
  progress.total = total;

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
          progress.index = i;
          continue;
        }
      }
    }
    missIdx.push_back(i);
  }
  progress.done = total - missIdx.size();
  progress.ok = true;
  if (progress.done > 0 && opts.onProgress) opts.onProgress(progress);
  if (missIdx.empty()) return outs;

  // Slot k belongs to miss k alone; every lease stays pinned until the plan
  // ends, so points that share a warm-up key share one capture.
  std::vector<SnapshotLru::Lease> leases(missIdx.size());
  const int jobs = sim::resolveJobs(opts.jobs);
  sim::SweepEta eta(missIdx.size(), jobs, opts.progress);
  // Serializes cache stores (a plan may hold the same point twice), the
  // progress counts and their callbacks.
  std::mutex doneMu;

  auto runMiss = [&](std::size_t k) {
    const std::size_t idx = missIdx[k];
    PointResult& out = outs[idx];
    if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed)) {
      out.canceled = true;
    } else {
      sim::SweepPoint p = plan.points[idx];
      // Applied after the cache key is computed: shards cannot change results,
      // so cached entries stay valid across every --shards setting.
      p.opts.shards = shards;
      // Trap MB_CHECK failures on this thread for the whole point, warm-up
      // capture included: a point that trips one becomes a recorded error,
      // not a process abort.
      const ScopedCheckTrap trap;
      try {
        if (p.opts.warmupRecords > 0) {
          const std::uint64_t wkey =
              sim::warmupKeyHash(p.cfg, p.workload, p.opts.warmupRecords);
          leases[k] = lru.acquire(wkey, [&p] {
            return sim::captureWarmupSnapshot(p.cfg, p.workload, p.opts.warmupRecords);
          });
          p.opts.warmupRestoreBuf = &leases[k].bytes();
        }
        out.json = sim::runResultToJson(sim::runSimulation(p.cfg, p.workload, p.opts));
        out.ok = true;
      } catch (const CheckFailure& f) {
        out.error = f.message;
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    }

    const std::lock_guard<std::mutex> lock(doneMu);
    if (out.ok && cache != nullptr && !cache->store(keys[idx], out.json)) {
      std::fprintf(stderr, "warning: result cache store failed for %s\n",
                   plan.points[idx].label.c_str());
    }
    eta.pointDone(idx, plan.points[idx].label, out.error);
    ++progress.done;
    if (!out.ok) ++progress.failed;
    progress.index = idx;
    progress.ok = out.ok;
    if (opts.onProgress) opts.onProgress(progress);
  };

  // The caller is worker 0, so one worker runs the misses inline.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= missIdx.size()) return;
      runMiss(k);
    }
  };
  const std::size_t workers = std::min(static_cast<std::size_t>(jobs), missIdx.size());
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(worker);
  worker();
  for (auto& t : helpers) t.join();
  return outs;
}

}  // namespace mb::serve
