// Reproduces Fig. 14: IPC, power breakdown, and relative 1/EDP of the three
// processor-memory interfaces without μbanks — DDR3-PCB (8 pin-limited
// channels), DDR3-TSI (16 channels, DDR3 PHY, 8-die ranks), and LPDDR-TSI
// (16 channels, 4 pJ/b, every die its own rank) — on mix-high, mix-blend,
// canneal, FFT, RADIX, and the spec-high average.
//
// Paper anchors (mix-high): DDR3-TSI +52.5% IPC and LPDDR-TSI +104.3% over
// DDR3-PCB; EDP -37.8% / -73.7%; for LPDDR-TSI the ACT/PRE share of memory
// power rises to ~76%, which motivates μbank.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace mb;
  bench::printBanner("Figure 14", "DDR3-PCB vs DDR3-TSI vs LPDDR-TSI (no ubanks)");

  const std::vector<std::string> workloads = {"mix-high", "mix-blend", "canneal",
                                              "FFT",      "RADIX",     "spec-high"};
  const interface::PhyKind phys[] = {interface::PhyKind::Ddr3Pcb,
                                     interface::PhyKind::Ddr3Tsi,
                                     interface::PhyKind::LpddrTsi};

  for (const auto& workload : workloads) {
    sim::SystemConfig pcbCfg = sim::tsiBaselineConfig();
    pcbCfg.phy = interface::PhyKind::Ddr3Pcb;
    const auto baseline = bench::runWorkload(workload, pcbCfg);

    std::printf("--- %s ---\n", workload.c_str());
    TablePrinter t({"interface", "rel IPC", "rel 1/EDP", "Proc W", "ACT/PRE W",
                    "DRAM static W", "RD/WR W", "I/O W", "ACT/PRE share of mem"});
    for (auto phy : phys) {
      sim::SystemConfig cfg = sim::tsiBaselineConfig();
      cfg.phy = phy;
      const auto runs = phy == interface::PhyKind::Ddr3Pcb
                            ? baseline
                            : bench::runWorkload(workload, cfg);
      const auto p = bench::powerBreakdown(runs);
      const double memW = p.actPre + p.dramStatic + p.rdwr + p.io;
      t.addRow(interface::phyKindName(phy),
               {sim::meanRatio(runs, baseline, sim::ipcOf),
                sim::meanRatio(runs, baseline, sim::invEdpOf), p.processor,
                p.actPre, p.dramStatic, p.rdwr, p.io,
                memW > 0 ? p.actPre / memW : 0.0},
               3);
    }
    t.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
