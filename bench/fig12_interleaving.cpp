// Reproduces Fig. 12: relative IPC and 1/EDP of spec-all and spec-high as
// the page-management policy (open vs close) and the address-interleaving
// base bit iB vary, on the representative μbank configurations. The legal
// iB range shrinks with nW exactly as in the paper's x-axis: up to 13 for
// (1,1), 12 for (2,8), 11 for (4,4), 10 for (8,2). Everything is normalized
// to the paper's baseline: (1,1), open page, page interleaving (iB = 13).
//
// Paper shape: at (1,1) policy and iB barely matter (PAR-BS recovers
// locality from the queue); with μbanks, open-page + page interleaving
// clearly wins (up to ~17% over close on spec-high at (2,8)).
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace mb;
  bench::printBanner("Figure 12", "page policy x interleaving base bit sweep");

  const sim::SystemConfig baseCfg = sim::tsiBaselineConfig();  // (1,1), open, iB=13

  struct Config {
    int nW, nB;
    std::vector<int> baseBits;
  };
  const std::vector<Config> configs = {
      {1, 1, {6, 8, 10, 13}},
      {2, 8, {6, 8, 10, 12}},
      {4, 4, {6, 8, 11}},
      {8, 2, {6, 8, 10}},
  };

  for (const char* group : {"spec-all", "spec-high"}) {
    const auto baseline = bench::runWorkload(group, baseCfg);
    std::printf("--- %s (baseline: (1,1) open iB=13) ---\n", group);
    TablePrinter t({"(nW,nB)", "iB", "policy", "rel IPC", "rel 1/EDP"});
    for (const auto& c : configs) {
      for (int iB : c.baseBits) {
        for (auto policy : {core::PolicyKind::Open, core::PolicyKind::Close}) {
          sim::SystemConfig cfg = baseCfg;
          cfg.ubank = dram::UbankConfig{c.nW, c.nB};
          cfg.interleaveBaseBit = iB;
          cfg.pagePolicy = policy;
          const auto runs = bench::runWorkload(group, cfg);
          t.addRow({"(" + std::to_string(c.nW) + "," + std::to_string(c.nB) + ")",
                    std::to_string(iB), policy == core::PolicyKind::Open ? "O" : "C",
                    formatDouble(sim::meanRatio(runs, baseline, sim::ipcOf), 3),
                    formatDouble(sim::meanRatio(runs, baseline, sim::invEdpOf),
                                 3)});
        }
      }
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "paper anchors: open-page + max iB dominates once nW*nB > 1; the O-C\n"
      "gap at (1,1) is small; close-page prefers low iB.\n");
  return 0;
}
