// Reproduces the paper's headline result (abstract / §I): the TSI-based
// μbank memory system improves IPC by 1.62x and 1/EDP by 4.80x over the
// baseline DDR3-PCB memory system, averaged over the memory-intensive third
// of SPEC CPU2006 (the spec-high group), using a low-area μbank
// configuration.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "dram/area_model.hpp"

int main() {
  using namespace mb;
  bench::printBanner("Headline", "TSI + ubank vs DDR3-PCB on spec-high");

  const auto baseline = bench::runWorkload("spec-high", sim::ddr3PcbConfig());

  TablePrinter t({"system", "rel IPC", "rel 1/EDP", "area overhead"});
  t.addRow({"DDR3-PCB (baseline)", "1.000", "1.000", "-"});

  {
    const auto tsi = bench::runWorkload("spec-high", sim::tsiBaselineConfig());
    t.addRow({"LPDDR-TSI, (1,1)",
              formatDouble(sim::meanRatio(tsi, baseline, sim::ipcOf), 3),
              formatDouble(sim::meanRatio(tsi, baseline, sim::invEdpOf), 3),
              "0.0%"});
  }
  dram::AreaModel area;
  for (const auto& c : sim::representativeConfigs()) {
    if (c.nW == 1 && c.nB == 1) continue;
    sim::SystemConfig cfg = sim::tsiBaselineConfig();
    cfg.ubank = dram::UbankConfig{c.nW, c.nB};
    const auto runs = bench::runWorkload("spec-high", cfg);
    t.addRow({"LPDDR-TSI + ubank " + c.label,
              formatDouble(sim::meanRatio(runs, baseline, sim::ipcOf), 3),
              formatDouble(sim::meanRatio(runs, baseline, sim::invEdpOf), 3),
              formatDouble(area.overhead({c.nW, c.nB}) * 100.0, 1) + "%"});
  }
  t.print(std::cout);
  std::printf("\npaper: IPC 1.62x and 1/EDP 4.80x on average for spec-high.\n");
  return 0;
}
