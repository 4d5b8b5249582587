// Ablation: memory-access scheduler (FCFS vs FR-FCFS vs PAR-BS) across
// μbank configurations.
//
// DESIGN.md calls this out: the paper uses PAR-BS as its default (§VI-A) and
// argues the scheduler's queue-inspection loses value as μbanks shrink
// per-bank queue depth. This ablation quantifies how much scheduling still
// matters at each partitioning level, on a latency-bound single-threaded
// app, the spec-high mean, and a 64-thread kernel.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace mb;
  bench::printBanner("Ablation", "scheduler (FCFS / FR-FCFS / PAR-BS) x ubank config");

  const std::vector<std::pair<int, int>> configs = {{1, 1}, {2, 8}, {8, 2}};
  const mc::SchedulerKind kinds[] = {mc::SchedulerKind::Fcfs, mc::SchedulerKind::FrFcfs,
                                     mc::SchedulerKind::ParBs};

  for (const char* workload : {"429.mcf", "spec-high", "TPC-H"}) {
    std::printf("--- %s (baseline: FCFS at same config) ---\n", workload);
    TablePrinter t({"(nW,nB)", "FCFS", "FR-FCFS", "PAR-BS"});
    for (const auto& [nW, nB] : configs) {
      std::vector<double> rel;
      std::vector<sim::RunResult> fcfsRuns;
      for (auto kind : kinds) {
        sim::SystemConfig cfg = sim::tsiBaselineConfig();
        cfg.ubank = dram::UbankConfig{nW, nB};
        cfg.scheduler = kind;
        auto runs = bench::runWorkload(workload, cfg);
        if (kind == mc::SchedulerKind::Fcfs) fcfsRuns = runs;
        rel.push_back(sim::meanRatio(runs, fcfsRuns, sim::ipcOf));
      }
      t.addRow("(" + std::to_string(nW) + "," + std::to_string(nB) + ")", rel, 3);
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "expected: row-hit-first scheduling (FR-FCFS/PAR-BS) helps most at\n"
      "(1,1); the advantage shrinks as ubanks remove bank conflicts.\n");
  return 0;
}
