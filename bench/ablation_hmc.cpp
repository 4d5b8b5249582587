// Extension study (paper §VII, left as future work there): HMC-style
// serial-link stacks vs TSI parallel interposer wires.
//
// The paper argues HMC "has a higher latency and static power and is not
// necessarily more energy-efficient for the system size being considered
// (e.g., single-socket system)". This bench quantifies that claim in this
// model: HMC pays ~16 ns of packetization/SerDes each way and an always-on
// link power, against LPDDR-TSI's bare interposer wires, with and without
// μbanks on both.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace mb;
  bench::printBanner("Extension", "HMC serial links vs TSI interposer wires");

  struct System {
    const char* label;
    interface::PhyKind phy;
    dram::UbankConfig ubank;
  };
  const System systems[] = {
      {"LPDDR-TSI (1,1)", interface::PhyKind::LpddrTsi, {1, 1}},
      {"HMC (1,1)", interface::PhyKind::Hmc, {1, 1}},
      {"LPDDR-TSI (8,2)", interface::PhyKind::LpddrTsi, {8, 2}},
      {"HMC (8,2)", interface::PhyKind::Hmc, {8, 2}},
  };

  for (const char* workload : {"429.mcf", "spec-high", "mix-high"}) {
    sim::SystemConfig baseCfg = sim::tsiBaselineConfig();
    const auto baseline = bench::runWorkload(workload, baseCfg);
    std::printf("--- %s (baseline LPDDR-TSI (1,1)) ---\n", workload);
    TablePrinter t({"system", "rel IPC", "rel 1/EDP", "read ns", "mem W"});
    for (const auto& s : systems) {
      sim::SystemConfig cfg = baseCfg;
      cfg.phy = s.phy;
      cfg.ubank = s.ubank;
      const auto runs = bench::runWorkload(workload, cfg);
      const auto p = bench::powerBreakdown(runs);
      t.addRow(s.label,
               {sim::meanRatio(runs, baseline, sim::ipcOf),
                sim::meanRatio(runs, baseline, sim::invEdpOf),
                bench::meanOf(runs,
                              +[](const sim::RunResult& r) { return r.avgReadLatencyNs; }),
                p.actPre + p.dramStatic + p.rdwr + p.io},
               3);
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "expected (paper's §VII claim): HMC trails TSI on latency-sensitive\n"
      "single-socket workloads and on energy (always-on links); ubanks help\n"
      "both, so the ordering persists.\n");
  return 0;
}
