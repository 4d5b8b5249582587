// Sweep vocabulary: the point type, seed folding, worker-count resolution
// and the stderr progress line.
//
// The paper's evaluation is built from dense grids of *independent*
// simulations — 5x5 (nW, nB) points per workload in Figs. 8/9, one run per
// representative config in Fig. 10 — and every simulation is a pure function
// of (SystemConfig, WorkloadSpec): its own event queue, device state, and
// seeded generators, with no shared mutable state. serve::runPlan
// (serve/run_plan.hpp) is the one executor that runs such a point list on a
// bounded worker pool; this header holds what it and its callers share.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

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
  /// warmupRestoreBuf target must outlive the run.
  RunOptions opts{};
};

/// Snapshot handed to SweepOptions::onProgress after every finished point —
/// the machine-readable replacement for scraping the stderr ETA line.
struct SweepProgress {
  std::size_t done = 0;    // points finished so far (failures included)
  std::size_t total = 0;
  std::size_t failed = 0;  // of `done`, how many did not produce a result
  std::size_t index = 0;   // plan index of the point that just finished
  bool ok = false;         // that point's outcome
};

struct SweepOptions {
  /// Worker threads; <= 0 resolves via resolveJobs() (MB_JOBS, then
  /// hardware concurrency). 1 runs the points serially on the calling
  /// thread — same outcomes.
  int jobs = 0;
  /// Print completed/total + ETA to stderr while running. The periodic ETA
  /// line only appears when stderr is a terminal — a piped or CI run gets
  /// no progress chatter (use onProgress for machine consumption); per-point
  /// FAILED lines still print unconditionally.
  bool progress = false;
  /// Machine-readable progress: invoked after each finished point,
  /// serialized under one mutex and after that point's result is stored.
  std::function<void(const SweepProgress&)> onProgress;
  /// Cooperative cancellation: when the pointed-at flag becomes true, points
  /// that have not started are recorded as canceled (and counted as failed)
  /// without running; in-flight points finish normally. The token must
  /// outlive the sweep. nullptr: never canceled.
  const std::atomic<bool>* cancel = nullptr;
};

/// The stderr side of SweepOptions::progress: a FAILED line per failed
/// point and, when stderr is a terminal, a completed/total + ETA line at
/// most once a second. Its wall clock lives in sweep.cpp and never feeds a
/// result. Not thread-safe: callers serialize pointDone().
class SweepEta {
 public:
  SweepEta(std::size_t total, int jobs, bool enabled);

  /// Count one finished point; a non-empty `error` prints its FAILED line.
  void pointDone(std::size_t index, const std::string& label,
                 const std::string& error);

 private:
  std::size_t total_;
  int jobs_;
  bool enabled_;
  bool tty_;
  std::size_t done_ = 0;
  double start_;          // seconds on sweep.cpp's monotonic clock
  double lastPrint_ = 0;  // same clock
};

}  // namespace mb::sim
