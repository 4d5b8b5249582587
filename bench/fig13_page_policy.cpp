// Reproduces Fig. 13: relative IPC and predictor hit rate of the
// page-management schemes — Close (C), Open (O), Local bimodal (L),
// Tournament (T), and Perfect oracle (P) — on 471.omnetpp, 429.mcf, the
// spec-high average, canneal, RADIX, mix-high, and mix-blend, at
// (nW, nB) = (1, 1), (2, 8), (4, 4). Normalized per workload to the
// open-page policy at the same μbank configuration (the paper's bars are
// comparable within each group).
//
// Also prints the §V supporting data: the request-queue occupancy collapse
// that starves queue-inspecting policies, the prediction-based gain on the
// conventional (1,1) system (paper: up to 20.5%), and the tournament-vs-open
// gap with μbanks (paper: 3.9% average, 11.2% max).
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace mb;
  bench::printBanner("Figure 13", "page-management schemes: C / O / L / T / P");

  const sim::SystemConfig base = sim::tsiBaselineConfig();
  const std::vector<std::pair<int, int>> configs = {{1, 1}, {2, 8}, {4, 4}};
  const std::vector<std::string> workloads = {"471.omnetpp", "429.mcf", "spec-high",
                                              "canneal",     "RADIX",   "mix-high",
                                              "mix-blend"};
  struct Scheme {
    const char* tag;
    core::PolicyKind kind;
  };
  const Scheme schemes[] = {{"C", core::PolicyKind::Close},
                            {"O", core::PolicyKind::Open},
                            {"L", core::PolicyKind::LocalBimodal},
                            {"T", core::PolicyKind::Tournament},
                            {"P", core::PolicyKind::Perfect}};

  double tournamentOverOpenSum = 0.0;
  double tournamentOverOpenMax = 0.0;
  int tournamentSamples = 0;
  double conventionalBestGain = 0.0;

  for (const auto& [nW, nB] : configs) {
    std::printf("--- (nW,nB) = (%d,%d) ---\n", nW, nB);
    TablePrinter t({"workload", "C ipc", "O ipc", "L ipc", "T ipc", "P ipc", "C hit",
                    "O hit", "L hit", "T hit", "queue occ"});
    for (const auto& workload : workloads) {
      sim::SystemConfig openCfg = base;
      openCfg.ubank = dram::UbankConfig{nW, nB};
      openCfg.pagePolicy = core::PolicyKind::Open;
      const auto openRuns = bench::runWorkload(workload, openCfg);

      std::vector<std::string> row{workload};
      std::vector<double> ipcRel(5, 0.0);
      std::vector<double> hitRate(5, 0.0);
      for (size_t s = 0; s < 5; ++s) {
        sim::SystemConfig cfg = openCfg;
        cfg.pagePolicy = schemes[s].kind;
        const auto runs = schemes[s].kind == core::PolicyKind::Open
                              ? openRuns
                              : bench::runWorkload(workload, cfg);
        ipcRel[s] = sim::meanRatio(runs, openRuns, sim::ipcOf);
        hitRate[s] = bench::meanOf(
            runs, +[](const sim::RunResult& r) { return r.predictorHitRate; });
        if (schemes[s].kind == core::PolicyKind::Tournament) {
          const double gain = ipcRel[s] - 1.0;
          tournamentOverOpenSum += gain;
          tournamentOverOpenMax = std::max(tournamentOverOpenMax, gain);
          ++tournamentSamples;
          if (nW == 1 && nB == 1) {
            conventionalBestGain = std::max(conventionalBestGain, gain);
          }
        }
      }
      for (size_t s = 0; s < 5; ++s) row.push_back(formatDouble(ipcRel[s], 3));
      for (size_t s = 0; s < 4; ++s) row.push_back(formatDouble(hitRate[s], 3));
      row.push_back(formatDouble(
          bench::meanOf(openRuns,
                        +[](const sim::RunResult& r) { return r.avgQueueOccupancy; }),
          2));
      t.addRow(std::move(row));
    }
    t.print(std::cout);
    std::printf("\n");
  }

  std::printf(
      "summary: tournament-over-open average %.1f%% (paper: 3.9%% with ubanks),\n"
      "max %.1f%%; best prediction gain on the conventional (1,1) system %.1f%%\n"
      "(paper: up to 20.5%%). P column is the oracle upper bound (hit rate 1).\n",
      100.0 * tournamentOverOpenSum / tournamentSamples, 100.0 * tournamentOverOpenMax,
      100.0 * conventionalBestGain);
  return 0;
}
