// Reproduces Fig. 10: relative IPC, relative 1/EDP, and the system power
// breakdown for the representative μbank configurations with < 3% die-area
// overhead — (1,1), (2,8), (4,4), (8,2) — on single-threaded applications
// (429.mcf, 450.soplex, spec-high, spec-all) and 64-core workloads
// (mix-high, mix-blend, RADIX, FFT).
//
// Paper shape: memory-intensive workloads gain the most; configurations
// with more wordline partitions dissipate the least ACT/PRE power; RADIX
// gains ~49% IPC at (8,2).
//
// All (workload, config) runs are planned through bench::SweepPlan and run
// in parallel on mbserve's sweep path (--jobs N / MB_JOBS; --jobs 1 is a
// serial walk, same stdout).
#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "dram/area_model.hpp"

int main(int argc, char** argv) {
  using namespace mb;
  const int jobs = bench::jobsFromArgs(argc, argv);
  bench::printBanner("Figure 10",
                     "representative <3%-area ubank configs: IPC, 1/EDP, power");

  const sim::SystemConfig base = sim::tsiBaselineConfig();
  const auto configs = sim::representativeConfigs();
  dram::AreaModel area;
  for (const auto& c : configs) {
    std::printf("config %s: area overhead %.1f%%\n", c.label.c_str(),
                area.overhead({c.nW, c.nB}) * 100.0);
  }
  std::printf("\n");

  const std::vector<std::string> workloads = {"429.mcf",  "450.soplex", "spec-high",
                                              "spec-all", "mix-high",   "mix-blend",
                                              "RADIX",    "FFT"};
  bench::SweepPlan plan;
  std::map<std::string, std::size_t> baselineCell;
  std::map<std::string, std::map<std::string, std::size_t>> configCell;
  for (const auto& workload : workloads) {
    baselineCell[workload] = plan.add(workload, base);
    for (const auto& c : configs) {
      sim::SystemConfig cfg = base;
      cfg.ubank = dram::UbankConfig{c.nW, c.nB};
      configCell[workload][c.label] = plan.add(workload, cfg);
    }
  }
  plan.run(jobs);

  for (const auto& workload : workloads) {
    const auto& baseline = plan.results(baselineCell[workload]);
    TablePrinter t({"(nW,nB)", "rel IPC", "rel 1/EDP", "Proc W", "ACT/PRE W",
                    "DRAM static W", "RD/WR W", "I/O W"});
    for (const auto& c : configs) {
      const auto& runs = plan.results(configCell[workload][c.label]);
      const auto p = bench::powerBreakdown(runs);
      t.addRow(c.label,
               {sim::meanRatio(runs, baseline, sim::ipcOf),
                sim::meanRatio(runs, baseline, sim::invEdpOf), p.processor,
                p.actPre, p.dramStatic, p.rdwr, p.io},
               3);
    }
    std::printf("--- %s ---\n", workload.c_str());
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "paper anchors: higher nW -> lower ACT/PRE power; RADIX +48.9%% IPC at\n"
      "(8,2); gains track MAPKI.\n");
  return 0;
}
