// Reproduces Fig. 8: relative IPC of (a) 429.mcf, (b) the spec-high average,
// and (c) TPC-H over the full (nW, nB) ∈ {1,2,4,8,16}² grid, normalized to
// the unpartitioned (1, 1) LPDDR-TSI baseline.
//
// Paper shape: mcf gains from both axes (1.55x at (16,16)); spec-high gains
// are modest (~1.2x); TPC-H jumps sharply with nB and saturates, with weak
// nW sensitivity; diminishing returns everywhere.
//
// The 286 grid points (26 cells per workload; spec-high is 9 apps per cell)
// are independent simulations planned through bench::SweepPlan and run on
// mbserve's sweep path (serve::runPlan): --jobs N / MB_JOBS bounds the pool
// (default: hardware concurrency; 1 is a serial walk; stdout is identical
// either way).
//
// --warmup=N (or MB_WARMUP=N) warms each point's caches with N functional
// trace records per core before measurement. The warmup state depends only
// on the workload and the processor shape — not on (nW, nB) or any other
// memory knob — so it runs once per warmup key and every grid point restores
// that MBCKPT1 snapshot from the sweep's SnapshotLru; the grids are
// bit-identical to replaying the warmup in every point.
#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace mb;
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  const int jobs = args.jobs;
  bench::printBanner("Figure 8", "relative IPC over the (nW, nB) grid");

  const auto& axis = sim::sweepAxis();
  const sim::SystemConfig base = sim::tsiBaselineConfig();
  const std::vector<std::string> workloads = {"429.mcf", "spec-high", "TPC-H"};

  // One flat plan for every workload's baseline and grid cells: the sweep
  // pool stays saturated across workload boundaries.
  bench::SweepPlan plan;
  std::map<std::string, std::size_t> baselineCell;
  std::map<std::string, std::map<std::pair<int, int>, std::size_t>> gridCell;
  for (const auto& workload : workloads) {
    baselineCell[workload] = plan.add(workload, base);
    for (int nw : axis) {
      for (int nb : axis) {
        sim::SystemConfig cfg = base;
        cfg.ubank = dram::UbankConfig{nw, nb};
        gridCell[workload][{nw, nb}] = plan.add(workload, cfg);
      }
    }
  }
  if (args.warmup > 0) plan.enableWarmup(args.warmup);
  plan.run(jobs);

  for (const auto& workload : workloads) {
    const auto& baseline = plan.results(baselineCell[workload]);
    GridPrinter grid(std::string("relative IPC: ") + workload, axis, axis);
    for (int nw : axis) {
      for (int nb : axis) {
        const auto& runs = plan.results(gridCell[workload][{nw, nb}]);
        grid.set(nw, nb, sim::meanRatio(runs, baseline, sim::ipcOf));
      }
    }
    grid.print(std::cout);
    std::cout << '\n';
  }
  std::printf(
      "paper anchors: mcf 1.548 at (16,16); spec-high ~1.21 peak; TPC-H\n"
      "1.44+ from nB>=2 with best at (16,8).\n");
  return 0;
}
