// Parallel sweep engine.
//
// The paper's evaluation is built from dense grids of *independent*
// simulations — 5x5 (nW, nB) points per workload in Figs. 8/9, one run per
// representative config in Fig. 10 — and every simulation is a pure function
// of (SystemConfig, WorkloadSpec): its own event queue, device state, and
// seeded generators, with no shared mutable state. SweepRunner exploits that:
// a bounded thread pool shards the points across workers while guaranteeing
// results identical to a serial walk.
//
// Guarantees:
//   - Determinism: outcomes depend only on the point list, never on worker
//     count or completion order, so `jobs=N` is bit-identical to `jobs=1`.
//     Every point runs with its own cfg.seed; statistical replicates fold
//     foldPointSeed(seed, index) into that seed when the points are planned
//     (serve::planJob), never at run time.
//   - Ordered collection: outcome[i] always corresponds to points[i].
//   - Failure isolation: an MB_CHECK that trips inside one point (or any
//     exception it throws) is recorded as that point's error string; the
//     remaining points still run and the process does not abort.
//   - Progress: an optional stderr reporter prints completed/total and an
//     ETA while the sweep runs (never on stdout, so piped metric output is
//     unaffected by `jobs`).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/system.hpp"

namespace mb::sim {

/// Derive the effective seed of sweep point `index` from a base seed by
/// folding the index through SplitMix64. A pure function — independent of
/// execution order — so parallel and serial sweeps draw identical seeds.
std::uint64_t foldPointSeed(std::uint64_t baseSeed, std::size_t index);

/// Resolve a worker count: `requested` > 0 wins; otherwise the MB_JOBS
/// environment variable; otherwise hostCpuCount().
/// An unparseable or non-positive MB_JOBS is rejected with a clear error
/// (exit 2) — a typo must not silently change how the suite runs.
int resolveJobs(int requested = 0);

/// CPUs this thread may run on: the affinity mask's size (so a run under
/// taskset or a cpuset cgroup sees its share, not the whole host), falling
/// back to std::thread::hardware_concurrency(); always >= 1.
int hostCpuCount();

/// One unit of work: a fully specified simulation.
struct SweepPoint {
  std::string label;  // "(4,4)/429.mcf" — used in progress and error reports
  SystemConfig cfg;
  WorkloadSpec workload;
  /// Per-point run options (warmup snapshot reuse, checkpointing). The
  /// warmupRestoreBuf target must outlive run().
  RunOptions opts{};
};

/// Result slot for one point, in submission order.
struct SweepOutcome {
  std::size_t index = 0;
  std::string label;
  bool ok = false;
  RunResult result;   // valid only when ok
  std::string error;  // MB_CHECK / exception text when !ok
  /// The point never ran because the sweep's cancel token tripped first.
  /// Canceled points are recorded with ok=false (no result, nothing cached);
  /// this flag lets live consumers (mbserve) tell a canceled point from a
  /// genuinely failed one.
  bool canceled = false;
};

/// Snapshot handed to SweepOptions::onProgress after every finished point —
/// the machine-readable replacement for scraping the stderr ETA line.
struct SweepProgress {
  std::size_t done = 0;    // points finished so far (failures included)
  std::size_t total = 0;
  std::size_t failed = 0;  // of `done`, how many did not produce a result
  std::size_t index = 0;   // submission index of the point that just finished
  bool ok = false;         // that point's outcome
};

struct SweepOptions {
  /// Worker threads; <= 0 resolves via resolveJobs() (MB_JOBS, then
  /// hardware concurrency). 1 runs the points serially on the calling
  /// thread — today's behavior, same outcomes.
  int jobs = 0;
  /// Print completed/total + ETA to stderr while running. The periodic ETA
  /// line only appears when stderr is a terminal — a piped or CI run gets
  /// no progress chatter (use onProgress for machine consumption); per-point
  /// FAILURE lines still print unconditionally.
  bool progress = false;
  /// Invoked once per completed point, serialized under one mutex (safe to
  /// store results from). Called in completion order, not index order.
  std::function<void(const SweepOutcome&)> onPointDone;
  /// Machine-readable progress: invoked after each finished point, under
  /// the same mutex as onPointDone (and after it, so a consumer that
  /// persists the outcome in onPointDone sees the persisted state counted).
  std::function<void(const SweepProgress&)> onProgress;
  /// Cooperative cancellation: when the pointed-at flag becomes true, points
  /// that have not started are recorded as canceled outcomes (ok=false,
  /// canceled=true) without running; in-flight points finish normally. The
  /// token must outlive run(). nullptr: never canceled.
  const std::atomic<bool>* cancel = nullptr;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {}) : opts_(opts) {}

  /// Run all points; outcome[i] corresponds to points[i]. Never aborts on a
  /// point failure (see header notes); the caller inspects `ok`.
  std::vector<SweepOutcome> run(const std::vector<SweepPoint>& points) const;

 private:
  SweepOptions opts_;
};

}  // namespace mb::sim
