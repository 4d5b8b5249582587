// Reproduces Fig. 9: relative 1/EDP (energy-delay product, higher is
// better) of 429.mcf, the spec-high average, and TPC-H over the (nW, nB)
// grid, normalized to the (1, 1) LPDDR-TSI baseline.
//
// Paper shape: 1/EDP gains exceed the IPC gains of Fig. 8 because nW also
// cuts activation energy; mcf reaches ~4.9x at (8,16); TPC-H ~3.6x at
// (16,8); the best-EDP corner always has nW >= 2.
//
// It plans the same points as fig8 and prints a different metric. Grid
// points run in parallel on mbserve's sweep path via bench::SweepPlan
// (--jobs N / MB_JOBS; --jobs 1 is a serial walk with identical stdout).
//
// --warmup=N / MB_WARMUP=N warms caches with N trace records per core
// before measurement: one MBCKPT1 warmup snapshot per warmup key, restored
// at every grid point that shares it.
#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace mb;
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  const int jobs = args.jobs;
  bench::printBanner("Figure 9", "relative 1/EDP over the (nW, nB) grid");

  const auto& axis = sim::sweepAxis();
  const sim::SystemConfig base = sim::tsiBaselineConfig();
  const std::vector<std::string> workloads = {"429.mcf", "spec-high", "TPC-H"};

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
    GridPrinter grid(std::string("relative 1/EDP: ") + workload, axis, axis);
    for (int nw : axis) {
      for (int nb : axis) {
        const auto& runs = plan.results(gridCell[workload][{nw, nb}]);
        grid.set(nw, nb, sim::meanRatio(runs, baseline, sim::invEdpOf));
      }
    }
    grid.print(std::cout);
    std::cout << '\n';
  }
  std::printf(
      "paper anchors: mcf up to 4.85 at (8,16); spec-high ~2.3 around\n"
      "(2..4,8..16); TPC-H ~3.6 at (16,8). 1/EDP > IPC gains everywhere\n"
      "nW > 1 (activation energy shrinks with the row).\n");
  return 0;
}
