// Execute a planned job through the memo cache: the one sweep executor.
//
// runPlan looks every point of a JobPlan up in the content-addressed
// ResultCache, runs only the misses on a bounded worker pool, and stores
// each miss that finishes. It is the one multi-point path:
//
//   - mbserve (Server::executeJob) wraps it in protocol events;
//   - `mbsim --sweep --cache-dir=DIR` prints its table from it, so
//     re-running an interrupted sweep over the same DIR replays the points
//     that finished and simulates only the rest;
//   - the figure benches (bench::SweepPlan) run their grids on it with no
//     cache and decode each result with runResultFromJson.
//
// Pool guarantees:
//   - Determinism: min(jobs, misses) threads (the caller among them) take
//     miss indices from one atomic counter and write disjoint result slots,
//     and every point runs with its own cfg.seed (planJob folded any reseed
//     into it), so results never depend on worker count or completion order:
//     `jobs=N` is byte-identical to `jobs=1`.
//   - Failure isolation: each miss, its warm-up capture included, runs
//     under its own ScopedCheckTrap. A tripped MB_CHECK (or any exception)
//     becomes that point's error string; the other points still run and the
//     process does not abort.
//   - Warm-up sharing: points with warmup lease one snapshot per
//     warmupKeyHash from the SnapshotLru (generated once, by the first
//     worker that needs it) and keep the lease until runPlan returns, so
//     even a zero-budget LRU shares each snapshot across the whole plan.
//
// The cache key folds each point's effective seed, so a sweep with a
// different seed, workload or preset list simply misses — two sweeps can
// never mix results. Results stay in canonical runResultToJson bytes end to
// end: a hit is the stored entry verbatim, a miss is serialized exactly once.
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
/// hits (when there are any), then one per finished miss — failed and
/// canceled misses included, so `done` reaches `total`.
std::vector<PointResult> runPlan(const JobPlan& plan, ResultCache* cache,
                                 SnapshotLru& lru, const sim::SweepOptions& opts,
                                 int shards);

}  // namespace mb::serve
