// Execute a planned job through the memo cache: the one resume path.
//
// runPlan looks every point of a JobPlan up in the content-addressed
// ResultCache, runs only the misses on a SweepRunner, and stores each miss
// that finishes. Both front ends share it:
//
//   - mbserve (Server::executeJob) wraps it in protocol events;
//   - `mbsim --sweep --cache-dir=DIR` prints its table from it, so
//     re-running an interrupted sweep over the same DIR replays the points
//     that finished and simulates only the rest.
//
// The cache key folds each point's effective seed (planJob already folded
// any reseed into it), so a sweep with a different seed, workload or preset
// list simply misses — two sweeps can never mix results. Results stay in
// canonical runResultToJson bytes end to end: a hit is the stored entry
// verbatim, a miss is serialized exactly once.
#pragma once

#include <string>
#include <vector>

#include "serve/job_spec.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_lru.hpp"
#include "sim/sweep.hpp"

namespace mb::serve {

/// The outcome of one planned point, in plan order.
struct PointResult {
  bool cached = false;    // served from the result cache
  bool ok = false;
  bool canceled = false;  // the cancel token tripped before the point ran
  std::string json;       // runResultToJson bytes (ok)
  std::string error;      // failure text (!ok && !canceled)
};

/// Run `plan`: look each point up in `cache` (skipped under plan.nocache),
/// simulate the misses with `opts` at `shards` channel workers, and store
/// every miss that finishes. A null `cache` looks up and stores nothing.
/// Points with warmup share snapshots through `lru`.
///
/// `opts.onProgress` counts over the whole plan: one call for the cache
/// hits (when there are any), then one per finished miss, with `done` and
/// `index` in plan terms. `opts.onPointDone` is replaced.
std::vector<PointResult> runPlan(const JobPlan& plan, ResultCache* cache,
                                 SnapshotLru& lru, sim::SweepOptions opts,
                                 int shards);

}  // namespace mb::serve
