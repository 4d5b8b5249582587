// Extension study: scaling the rank activation window with the μbank row
// size.
//
// tRRD/tFAW exist because row activation draws a large burst of current
// from the rank's charge pumps. A μbank row of 8KB/nW activates ~1/nW of
// the bits, so its current draw shrinks proportionally — the paper models
// the energy effect (Fig. 6b) but keeps the standard window; this ablation
// asks how much performance the conservative window costs on
// activation-rate-bound workloads.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace mb;
  bench::printBanner("Extension", "tRRD/tFAW scaling with ubank row size");

  for (const char* workload : {"429.mcf", "spec-high", "RADIX"}) {
    std::printf("--- %s ---\n", workload);
    TablePrinter t({"(nW,nB)", "act window", "rel IPC", "read ns"});
    std::vector<sim::RunResult> baseline;
    for (const auto& [nW, nB] : {std::pair{1, 1}, std::pair{4, 4}, std::pair{8, 2}}) {
      for (const bool scaled : {false, true}) {
        if (nW == 1 && scaled) continue;  // no row shrink, nothing to scale
        sim::SystemConfig cfg = sim::tsiBaselineConfig();
        cfg.ubank = dram::UbankConfig{nW, nB};
        cfg.scaleActWindowWithRowSize = scaled;
        const auto runs = bench::runWorkload(workload, cfg);
        if (baseline.empty()) baseline = runs;
        t.addRow({"(" + std::to_string(nW) + "," + std::to_string(nB) + ")",
                  scaled ? "scaled 1/nW" : "standard",
                  formatDouble(sim::meanRatio(runs, baseline, sim::ipcOf), 3),
                  formatDouble(
                      bench::meanOf(
                          runs, +[](const sim::RunResult& r) { return r.avgReadLatencyNs; }),
                      1)});
      }
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "expected: visible gains only where the activate rate is the binding\n"
      "constraint (conflict-heavy, low-locality streams at high nW).\n");
  return 0;
}
