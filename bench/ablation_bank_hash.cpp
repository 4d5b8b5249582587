// Extension study: permutation-based (XOR) bank-index hashing vs μbank.
//
// XOR-folding low row bits into the bank index is the classic *system-level*
// answer to bank conflicts: hot rows that would collide in one bank scatter
// across banks with no DRAM device change. μbank is the *device-level*
// answer: more row buffers per bank plus smaller (cheaper) rows. This
// ablation puts them side by side and in combination — hashing can recover
// some of μbank's conflict reduction, but none of its activation-energy
// savings, which is the paper's core point about TSI-based systems.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

int main() {
  using namespace mb;
  bench::printBanner("Extension", "XOR bank hashing vs ubank partitioning");

  struct System {
    const char* label;
    dram::UbankConfig ubank;
    bool hash;
  };
  const System systems[] = {
      {"(1,1) plain", {1, 1}, false},
      {"(1,1) + XOR hash", {1, 1}, true},
      {"(2,8) plain", {2, 8}, false},
      {"(2,8) + XOR hash", {2, 8}, true},
  };

  for (const char* workload : {"429.mcf", "spec-high", "TPC-H"}) {
    sim::SystemConfig baseCfg = sim::tsiBaselineConfig();
    const auto baseline = bench::runWorkload(workload, baseCfg);
    std::printf("--- %s (baseline (1,1) plain) ---\n", workload);
    TablePrinter t({"system", "rel IPC", "rel 1/EDP", "row hit", "ACT/PRE W"});
    for (const auto& s : systems) {
      sim::SystemConfig cfg = baseCfg;
      cfg.ubank = s.ubank;
      cfg.xorBankHash = s.hash;
      const auto runs = bench::runWorkload(workload, cfg);
      const auto p = bench::powerBreakdown(runs);
      t.addRow(s.label,
               {sim::meanRatio(runs, baseline, sim::ipcOf),
                sim::meanRatio(runs, baseline, sim::invEdpOf),
                bench::meanOf(runs, +[](const sim::RunResult& r) { return r.rowHitRate; }),
                p.actPre},
               3);
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf(
      "expected: hashing narrows the IPC gap on conflict-bound workloads but\n"
      "leaves ACT/PRE power untouched, so ubank keeps its EDP advantage.\n");
  return 0;
}
