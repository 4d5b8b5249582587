// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints: a header naming the paper artifact it regenerates, the
// system configuration used, and the table/series in the paper's layout.
// Slices default to the "fast" preset (whole bench suite in minutes); set
// MB_SLICE=full for longer, tighter-statistics runs.
//
// Grid benches run their simulation points through sim::SweepRunner: pass
// --jobs N (or set MB_JOBS) to bound the worker pool; the default is the
// hardware concurrency and --jobs 1 reproduces the old serial walk. Metric
// output on stdout is byte-identical for every jobs value — only wall-clock
// and the stderr progress stream change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
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
///   --warmup-cold  replay the warmup per grid point instead of restoring
///                  the shared MBCKPT1 warmup snapshot (the slow reference
///                  path; results are bit-identical either way)
struct BenchArgs {
  int jobs = 0;
  std::int64_t warmup = 0;
  bool warmupCold = false;
};
BenchArgs parseBenchArgs(int argc, char** argv);

/// Print the standard bench banner.
void printBanner(const std::string& artifact, const std::string& what);

/// 64-core, 16-channel configuration for multiprogrammed / multithreaded
/// workloads (paper §VI-A); honors the PHY's channel limit.
sim::SystemConfig multicoreConfig(sim::SystemConfig base);

/// Apply the slice preset from MB_SLICE to single- or multi-core configs.
sim::SystemConfig sliced(sim::SystemConfig cfg, bool multicore);

/// Batches every (workload, config) cell of a bench into one flat point
/// list, runs it through sim::SweepRunner, and hands each cell its results
/// back in submission order. Flattening matters: a 5x5 grid of spec-high
/// cells is 250 independent single-app simulations, and one shared pool
/// keeps every worker busy across cell boundaries instead of paying a
/// serial barrier per cell.
class SweepPlan {
 public:
  /// Queue one workload/config cell (workload names as in runWorkload()).
  /// Returns the cell id to pass to results() after run().
  std::size_t add(const std::string& workload, const sim::SystemConfig& cfg);

  /// Warm each point's caches with `records` functional trace records per
  /// core before its timed run. With `reuseSnapshots` (the default), the
  /// warmup runs ONCE per distinct warmup key (workload + seed + processor
  /// shape — see sim::warmupKeyHash) and every grid point restores the
  /// shared MBCKPT1 snapshot; the cold path replays the warmup inside every
  /// point. Both paths produce bit-identical results; reuse just removes
  /// the per-point replay from a grid that shares one workload.
  void enableWarmup(std::int64_t records, bool reuseSnapshots = true);

  /// Run all queued cells with `jobs` workers (<= 0: MB_JOBS / hardware
  /// concurrency). If any point fails, every failure is reported on stderr
  /// before the process aborts — one bad point no longer hides the others.
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
  bool warmupReuse_ = true;
  /// Warmup key -> encoded snapshot; node-stable so points_ can hold
  /// pointers into the mapped strings across run().
  std::map<std::uint64_t, std::string> warmupSnaps_;
  bool ran_ = false;
};

/// Run a named workload:
///   - a SPEC app name ("429.mcf"): single core, single channel;
///   - "spec-high"/"spec-med"/"spec-low"/"spec-all": per-app runs, averaged
///     as ratios by the caller (returns all apps' results);
///   - "mix-high"/"mix-blend": 64-core multiprogrammed;
///   - "RADIX"/"FFT"/"canneal"/"TPC-C"/"TPC-H": 64-thread kernels.
/// Returns one result per constituent run. Group members run concurrently
/// (MB_JOBS workers, else one per hardware thread).
std::vector<sim::RunResult> runWorkload(const std::string& name,
                                        const sim::SystemConfig& cfg);

/// Mean metric ratio of `test` over `baseline` (paired per constituent).
double relative(const std::vector<sim::RunResult>& test,
                const std::vector<sim::RunResult>& baseline,
                double (*metric)(const sim::RunResult&));

inline double ipcMetric(const sim::RunResult& r) { return r.systemIpc; }
inline double invEdpMetric(const sim::RunResult& r) { return r.invEdp; }

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
