// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints: a header naming the paper artifact it regenerates, the
// system configuration used, and the table/series in the paper's layout.
// Slices default to the "fast" preset (whole bench suite in minutes); set
// MB_SLICE=full for longer, tighter-statistics runs.
//
// Every simulating bench plans its points through SweepPlan, which runs them
// on the sweep path mbserve and `mbsim --sweep` use (serve::runPlan): one
// flat point list on one worker pool, warm-up snapshots shared per warm-up
// key through a serve::SnapshotLru. Pass --jobs N (or set MB_JOBS) to bound
// the pool; the default is the hardware concurrency and --jobs 1 is a serial
// walk. Metric output on stdout is byte-identical for every jobs value —
// only wall-clock and the stderr progress stream change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"

namespace mb::bench {

/// Parse `--jobs=N` / `--jobs N` out of argv (consuming nothing else) and
/// resolve the default through sim::resolveJobs (MB_JOBS, then the host
/// CPU count). Any unrecognized argument is rejected with exit 2.
int jobsFromArgs(int argc, char** argv);

/// Common bench arguments for grid benches that support cache warmup:
///   --jobs=N       worker pool (as jobsFromArgs)
///   --warmup=N     functional-warmup records per core before measurement
///                  (default: MB_WARMUP env, else 0 = no warmup)
struct BenchArgs {
  int jobs = 0;
  std::int64_t warmup = 0;
};
BenchArgs parseBenchArgs(int argc, char** argv);

/// Print the standard bench banner.
void printBanner(const std::string& artifact, const std::string& what);

/// Batches every (workload, config) cell of a bench into one flat point
/// list, runs it through serve::runPlan, and hands each cell its results
/// back in submission order. Flattening matters: a 5x5 grid of spec-high
/// cells is 250 independent single-app simulations, and one shared pool
/// keeps every worker busy across cell boundaries instead of paying a
/// serial barrier per cell.
class SweepPlan {
 public:
  /// Queue one workload/config cell (workload names as in runWorkload()),
  /// shaped by sim::applyWorkloadShape and sliced by MB_SLICE. Returns the
  /// cell id to pass to results() after run().
  std::size_t add(const std::string& workload, const sim::SystemConfig& cfg);

  /// Warm each point's caches with `records` functional trace records per
  /// core before its timed run. The warmup runs once per distinct warmup
  /// key (workload + seed + processor shape — see sim::warmupKeyHash) and
  /// every point sharing the key restores that MBCKPT1 snapshot; the results
  /// are bit-identical to replaying the warmup inside every point.
  void enableWarmup(std::int64_t records);

  /// Run all queued cells with `jobs` workers (<= 0: MB_JOBS / hardware
  /// concurrency). If any point fails, every failure is reported on stderr
  /// before the process aborts — one bad point does not hide the others.
  void run(int jobs);

  /// Per-constituent results of a cell, in the same order runWorkload()
  /// would return them. Valid after run().
  const std::vector<sim::RunResult>& results(std::size_t cell) const;

 private:
  struct Cell {
    std::size_t firstPoint = 0;
    std::size_t numPoints = 0;
    std::vector<sim::RunResult> results;
  };
  std::vector<sim::SweepPoint> points_;
  std::vector<Cell> cells_;
  std::int64_t warmupRecords_ = 0;
  bool ran_ = false;
};

/// Run a named workload as a one-cell SweepPlan:
///   - a SPEC app name ("429.mcf"): single core, single channel;
///   - "spec-high"/"spec-med"/"spec-low"/"spec-all": per-app runs, averaged
///     as ratios by the caller (returns all apps' results);
///   - "mix-high"/"mix-blend": 64-core multiprogrammed;
///   - "RADIX"/"FFT"/"canneal"/"TPC-C"/"TPC-H": 64-thread kernels.
/// Returns one result per constituent run. Group members run concurrently
/// (MB_JOBS workers, else one per hardware thread).
std::vector<sim::RunResult> runWorkload(const std::string& name,
                                        const sim::SystemConfig& cfg);

/// Aggregate power breakdown (watts) over a workload's runs.
struct PowerBreakdownW {
  double processor = 0, actPre = 0, dramStatic = 0, rdwr = 0, io = 0;
  double total() const { return processor + actPre + dramStatic + rdwr + io; }
};
PowerBreakdownW powerBreakdown(const std::vector<sim::RunResult>& runs);

/// Mean of a scalar across runs.
double meanOf(const std::vector<sim::RunResult>& runs,
              double (*metric)(const sim::RunResult&));

}  // namespace mb::bench
