// mbsim — command-line driver for single simulations.
//
// Runs one workload on one configuration and prints a full report, so the
// library can be driven without writing C++:
//
//   mbsim --workload=429.mcf --nw=4 --nb=4
//   mbsim --workload=TPC-H --phy=ddr3-pcb --policy=close --scheduler=frfcfs
//   mbsim --workload=mix-high --instrs=500000 --ib=6 --seed=7
//
// Flags (all optional):
//   --workload=NAME   SPEC app ("429.mcf"), mix ("mix-high"/"mix-blend"),
//                     a kernel ("RADIX"/"FFT"/"canneal"/"TPC-C"/"TPC-H"),
//                     or recorded traces ("trace:PREFIX" -> PREFIX.<core>.mbt,
//                     written by tools/mbtrace)
//   --preset=NAME     start from a shipped preset configuration instead of
//                     the TSI baseline (mblint --list-presets names them);
//                     later flags still override individual knobs
//   --nw=N --nb=N     μbank partitioning (powers of two, 1..16)
//   --phy=KIND        ddr3-pcb | ddr3-tsi | lpddr-tsi | hmc
//   --policy=KIND     open|close|minimalist|local|global|tournament|perfect
//   --scheduler=KIND  fcfs | frfcfs | parbs
//   --ib=N            interleaving base bit (6 = cache line; default page)
//   --instrs=N        instruction slice per core
//   --queue=N         scheduler-visible request window
//   --seed=N          workload seed
//   --xor-bank-hash   permutation-based bank-index hashing
//   --per-bank-refresh, --no-refresh, --no-prefetch, --timing-check
//   --record-cmds=PATH  stream every DRAM command to an MBCMDT1 trace
//                     (offline re-verification: tools/mbaudit). Under
//                     --sweep, one trace per preset: PATH gains a
//                     ".<preset>" suffix before its extension
//   --audit           after the run(s), replay the recorded trace(s)
//                     through the offline auditor and fail (exit 1) on any
//                     MB-AUD violation; implies --record-cmds (default
//                     "mbsim-cmds.mbc" when not given)
//   --shards=N        worker threads inside ONE simulation: the channel-
//                     sharded engine (DESIGN.md §14) distributes memory
//                     channels over N threads. Reports, command traces and
//                     snapshots are byte-identical for every N; the knob
//                     trades threads for wall-clock only
//   --version         print tool + MBTRACE1/MBCMDT1/MBCKPT1 format versions
//
// Checkpoint / restore (MBCKPT1 snapshots, see src/ckpt/snapshot.hpp):
//   --checkpoint-at=PS  capture a full-run snapshot at the first event
//                     boundary at or after PS picoseconds of sim time
//                     (a PS past the end snapshots the final state)
//   --checkpoint=PATH where to write the snapshot (required with
//                     --checkpoint-at); the run continues to completion
//   --restore-from=PATH  skip the cold start: restore the snapshot and
//                     resume — the final report is bit-identical to the
//                     run that produced the snapshot
//   --warmup=N        functional cache warmup: N trace records per core
//                     replayed through the hierarchy before the timed run
//   --warmup-save=PATH  run ONLY the functional warmup and save it as a
//                     reusable warmup snapshot (no timed simulation)
//   --warmup-load=PATH  restore a warmup snapshot (with --warmup=N, which
//                     must match the captured length) instead of replaying
// A mismatched or corrupted snapshot is rejected with a stable MB-CKP-NNN
// diagnostic (registry: DESIGN.md §"Checkpoint & snapshot reuse").
//
// Sweep mode — run the workload over EVERY shipped preset in parallel and
// print one summary row per preset:
//
//   mbsim --sweep --workload=429.mcf --jobs=8
//
//   --sweep           run all shipped presets (tools/mblint --all-presets
//                     lints the same list), planned and run exactly as an
//                     mbserve sweep submit (serve::planJob + serve::runPlan)
//   --jobs=N          worker threads (default: MB_JOBS, then hardware
//                     concurrency; 1 = serial, identical output)
//   --reseed          derive each point's seed as foldPointSeed(seed, index)
//                     instead of running every preset with the same seed
//                     (same-seed runs are paired and directly comparable;
//                     reseeded runs are statistically independent)
//   --cache-dir=DIR   memoize every finished point in DIR (mbserve's
//                     content-addressed MBRES1 result cache, see
//                     src/serve/run_plan.hpp). Re-running the same command
//                     over the same DIR replays the finished points and
//                     simulates only the rest — the resume path for an
//                     interrupted sweep, byte-identical to an uninterrupted
//                     one. A different seed, workload or --reseed misses
//                     instead of mixing results. Not combinable with
//                     --record-cmds/--audit: a cached point records no trace
//
// A preset that fails mid-simulation is reported as an ERROR row (exit 1)
// after the rest of the sweep completes — not a process abort.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "analysis/config_lint.hpp"
#include "analysis/trace_audit.hpp"
#include "common/check.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "serve/run_plan.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "mbsim: %s\n(see the header of tools/mbsim.cpp for flags)\n",
               msg);
  std::exit(2);
}

bool matchFlag(const std::string& arg, const std::string& name, std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (!startsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// "tsi-ubank(4,4)" -> "tsi-ubank-4-4-": a preset label safe inside a file
/// name (used to derive per-point --record-cmds paths under --sweep).
std::string sanitizeLabel(const std::string& label) {
  std::string out;
  for (const char c : label)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
            c == '_' || c == '.')
               ? c
               : '-';
  return out;
}

/// "dir/cmds.mbc" + "ddr3-pcb" -> "dir/cmds.ddr3-pcb.mbc".
std::string perPointTracePath(const std::string& base, const std::string& label) {
  const auto dot = base.rfind('.');
  const auto slash = base.rfind('/');
  const bool hasExt = dot != std::string::npos &&
                      (slash == std::string::npos || dot > slash);
  if (!hasExt) return base + "." + sanitizeLabel(label);
  return base.substr(0, dot) + "." + sanitizeLabel(label) + base.substr(dot);
}

/// Audit one recorded trace; prints a one-line verdict. Returns true when
/// the trace loads and replays clean.
bool auditRecordedTrace(const std::string& path) {
  analysis::DiagnosticEngine diags;
  const auto trace = mc::readCmdTrace(path, diags);
  if (!trace.has_value()) {
    std::fprintf(stderr, "%s", diags.renderText().c_str());
    std::printf("audit %-40s UNREADABLE\n", path.c_str());
    return false;
  }
  const auto res = analysis::auditCmdTrace(*trace, diags);
  if (diags.hasErrors()) {
    std::fprintf(stderr, "%s", diags.renderText().c_str());
    std::printf("audit %-40s VIOLATIONS (%lld of %lld events rejected)\n",
                path.c_str(), static_cast<long long>(res.commandsRejected),
                static_cast<long long>(res.eventsAudited));
    return false;
  }
  std::printf("audit %-40s CLEAN (%lld events)\n", path.c_str(),
              static_cast<long long>(res.eventsAudited));
  return true;
}

int runPresetSweep(const sim::SystemConfig& userCfg, const std::string& workload,
                   int jobs, int shards, bool reseed, const std::string& recordCmds,
                   bool audit, const std::string& cacheDir) {
  // Plan exactly as mbserve plans a sweep submit: every shipped preset,
  // with the user's run-shaping flags carried in (the preset owns the
  // architecture, the user owns the run) and --reseed folded into each
  // point's seed.
  serve::JobSpec spec;
  spec.workload = workload;
  spec.sweep = true;
  spec.instrs = userCfg.core.maxInstrs;
  spec.seed = userCfg.seed;
  spec.hasSeed = true;
  spec.reseed = reseed;
  serve::JobPlan plan;
  analysis::DiagnosticEngine diags;
  if (!serve::planJob(spec, &plan, diags)) {
    std::fprintf(stderr, "mbsim: sweep rejected:\n%s", diags.renderText().c_str());
    return 2;
  }
  if (!recordCmds.empty()) {
    for (auto& point : plan.points)
      point.cfg.recordCmdsPath = perPointTracePath(recordCmds, point.label);
  }

  std::optional<serve::ResultCache> cache;
  if (!cacheDir.empty()) {
    cache.emplace(cacheDir);
    if (!cache->ok()) {
      std::fprintf(stderr, "mbsim: cannot create cache dir %s\n", cacheDir.c_str());
      return 2;
    }
  }
  serve::SnapshotLru lru(0);  // sweep points carry no warmup
  sim::SweepOptions opts;
  opts.jobs = jobs;
  opts.progress = true;
  const auto outs =
      serve::runPlan(plan, cache ? &*cache : nullptr, lru, opts, shards);

  std::printf("preset sweep: workload=%s jobs=%d%s\n\n", workload.c_str(),
              sim::resolveJobs(jobs), reseed ? " (reseeded per point)" : "");
  std::printf("%-32s %10s %12s %9s %7s\n", "preset", "IPC", "1/EDP", "row-hit",
              "MAPKI");
  int failures = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const std::string& label = plan.points[i].label;
    sim::RunResult r;
    if (!outs[i].ok || !sim::runResultFromJson(outs[i].json, &r)) {
      ++failures;
      std::printf("%-32s ERROR: %s\n", label.c_str(),
                  outs[i].ok ? "unreadable cached result" : outs[i].error.c_str());
      continue;
    }
    std::printf("%-32s %10.3f %12.4g %9.3f %7.1f\n", label.c_str(), r.systemIpc,
                r.invEdp, r.rowHitRate, r.mapki);
  }
  if (failures > 0)
    std::printf("\n%d of %zu presets failed (see rows above)\n", failures,
                outs.size());

  if (audit && !recordCmds.empty()) {
    std::printf("\n");
    for (const auto& point : plan.points) {
      if (!auditRecordedTrace(point.cfg.recordCmdsPath)) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sim::SystemConfig cfg = sim::tsiBaselineConfig();
  std::string workload = "429.mcf";
  std::string value;
  bool sweep = false;
  bool reseed = false;
  bool audit = false;
  std::string recordCmds;
  int jobs = 0;
  sim::RunOptions runOpts;
  std::string warmupSave;
  std::string cacheDir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::printf("%s", versionBanner("mbsim").c_str());
      return 0;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--reseed") {
      reseed = true;
    } else if (matchFlag(arg, "jobs", &value)) {
      jobs = std::atoi(value.c_str());
      if (jobs < 1) usage("--jobs expects a positive integer");
    } else if (matchFlag(arg, "shards", &value)) {
      runOpts.shards = std::atoi(value.c_str());
      if (runOpts.shards < 1) usage("--shards expects a positive integer");
    } else if (matchFlag(arg, "workload", &value)) {
      workload = value;
    } else if (matchFlag(arg, "preset", &value)) {
      bool found = false;
      for (const auto& p : sim::shippedPresets()) {
        if (p.name != value) continue;
        const auto keepInstrs = cfg.core.maxInstrs;
        const auto keepSeed = cfg.seed;
        cfg = p.cfg;
        cfg.core.maxInstrs = keepInstrs;
        cfg.seed = keepSeed;
        found = true;
        break;
      }
      if (!found) usage(("unknown preset: " + value).c_str());
    } else if (matchFlag(arg, "nw", &value)) {
      cfg.ubank.nW = std::atoi(value.c_str());
    } else if (matchFlag(arg, "nb", &value)) {
      cfg.ubank.nB = std::atoi(value.c_str());
    } else if (matchFlag(arg, "phy", &value)) {
      if (value == "ddr3-pcb") cfg.phy = interface::PhyKind::Ddr3Pcb;
      else if (value == "ddr3-tsi") cfg.phy = interface::PhyKind::Ddr3Tsi;
      else if (value == "lpddr-tsi") cfg.phy = interface::PhyKind::LpddrTsi;
      else if (value == "hmc") cfg.phy = interface::PhyKind::Hmc;
      else usage("unknown --phy");
    } else if (matchFlag(arg, "policy", &value)) {
      if (value == "open") cfg.pagePolicy = core::PolicyKind::Open;
      else if (value == "close") cfg.pagePolicy = core::PolicyKind::Close;
      else if (value == "minimalist") cfg.pagePolicy = core::PolicyKind::MinimalistOpen;
      else if (value == "local") cfg.pagePolicy = core::PolicyKind::LocalBimodal;
      else if (value == "global") cfg.pagePolicy = core::PolicyKind::GlobalBimodal;
      else if (value == "tournament") cfg.pagePolicy = core::PolicyKind::Tournament;
      else if (value == "perfect") cfg.pagePolicy = core::PolicyKind::Perfect;
      else usage("unknown --policy");
    } else if (matchFlag(arg, "scheduler", &value)) {
      if (value == "fcfs") cfg.scheduler = mc::SchedulerKind::Fcfs;
      else if (value == "frfcfs") cfg.scheduler = mc::SchedulerKind::FrFcfs;
      else if (value == "parbs") cfg.scheduler = mc::SchedulerKind::ParBs;
      else usage("unknown --scheduler");
    } else if (matchFlag(arg, "ib", &value)) {
      cfg.interleaveBaseBit = std::atoi(value.c_str());
    } else if (matchFlag(arg, "instrs", &value)) {
      cfg.core.maxInstrs = std::atoll(value.c_str());
    } else if (matchFlag(arg, "queue", &value)) {
      cfg.queueDepth = std::atoi(value.c_str());
    } else if (matchFlag(arg, "seed", &value)) {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (arg == "--xor-bank-hash") {
      cfg.xorBankHash = true;
    } else if (arg == "--per-bank-refresh") {
      cfg.perBankRefresh = true;
    } else if (arg == "--no-refresh") {
      cfg.refresh = false;
    } else if (arg == "--no-prefetch") {
      cfg.hier.enablePrefetch = false;
    } else if (arg == "--timing-check") {
      cfg.timingCheck = true;
    } else if (matchFlag(arg, "record-cmds", &value)) {
      if (value.empty()) usage("--record-cmds expects a file path");
      recordCmds = value;
    } else if (arg == "--audit") {
      audit = true;
    } else if (matchFlag(arg, "checkpoint-at", &value)) {
      runOpts.checkpointAt = std::atoll(value.c_str());
      if (runOpts.checkpointAt < 0) usage("--checkpoint-at expects picoseconds >= 0");
    } else if (matchFlag(arg, "checkpoint", &value)) {
      if (value.empty()) usage("--checkpoint expects a file path");
      runOpts.checkpointPath = value;
    } else if (matchFlag(arg, "restore-from", &value)) {
      if (value.empty()) usage("--restore-from expects a file path");
      runOpts.restorePath = value;
    } else if (matchFlag(arg, "warmup", &value)) {
      runOpts.warmupRecords = std::atoll(value.c_str());
      if (runOpts.warmupRecords < 1) usage("--warmup expects a positive record count");
    } else if (matchFlag(arg, "warmup-save", &value)) {
      if (value.empty()) usage("--warmup-save expects a file path");
      warmupSave = value;
    } else if (matchFlag(arg, "warmup-load", &value)) {
      if (value.empty()) usage("--warmup-load expects a file path");
      runOpts.warmupRestorePath = value;
    } else if (matchFlag(arg, "cache-dir", &value)) {
      if (value.empty()) usage("--cache-dir expects a directory");
      cacheDir = value;
    } else {
      usage(("unrecognized argument: " + arg).c_str());
    }
  }
  // Pre-flight static analysis: reject an invalid configuration with
  // structured diagnostics before any simulation tick runs. This fires in
  // sweep mode too — the presets own the architecture there, but a config
  // flag bad enough to fail lint is a user error, not something to ignore.
  {
    analysis::DiagnosticEngine engine;
    analysis::ConfigLinter linter(engine);
    if (!linter.lintSystem(cfg)) {
      std::fprintf(stderr, "mbsim: configuration rejected by mblint rules:\n%s",
                   engine.renderText().c_str());
      return 2;
    }
  }

  if (audit && recordCmds.empty()) recordCmds = "mbsim-cmds.mbc";
  if ((runOpts.checkpointAt >= 0) != !runOpts.checkpointPath.empty())
    usage("--checkpoint-at and --checkpoint must be given together");
  if (!cacheDir.empty() && !sweep) usage("--cache-dir only applies to --sweep mode");
  if (!cacheDir.empty() && !recordCmds.empty())
    usage("--cache-dir cannot be combined with --record-cmds/--audit (a cached "
          "point records no command trace)");
  const auto spec = sim::workloadByName(workload);
  if (!spec) usage(("unknown workload: " + workload).c_str());

  if (sweep)
    return runPresetSweep(cfg, workload, jobs, runOpts.shards, reseed, recordCmds,
                          audit, cacheDir);

  cfg.recordCmdsPath = recordCmds;
  sim::applyWorkloadShape(cfg, *spec);

  // A rejected snapshot (or any other MB_CHECK failure) becomes a printed
  // diagnostic and exit 2 — same contract as mblint/mbaudit, no SIGABRT.
  ScopedCheckTrap trap;

  if (!warmupSave.empty()) {
    // Capture-only mode: run the functional warmup and persist it as a
    // reusable MBCKPT1 warmup snapshot; no timed simulation.
    if (runOpts.warmupRecords < 1)
      usage("--warmup-save requires --warmup=N (the warmup length)");
    std::string buf;
    try {
      buf = sim::captureWarmupSnapshot(cfg, *spec, runOpts.warmupRecords);
    } catch (const CheckFailure& f) {
      std::fprintf(stderr, "mbsim: %s\n", f.message.c_str());
      return 2;
    }
    std::FILE* f = std::fopen(warmupSave.c_str(), "wb");
    if (f == nullptr || std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
      if (f != nullptr) std::fclose(f);
      std::fprintf(stderr, "mbsim: cannot write %s\n", warmupSave.c_str());
      return 2;
    }
    std::fclose(f);
    std::printf("wrote warmup snapshot (%zu bytes, %lld records/core) to %s\n",
                buf.size(), static_cast<long long>(runOpts.warmupRecords),
                warmupSave.c_str());
    return 0;
  }

  sim::RunResult r;
  try {
    r = sim::runSimulation(cfg, *spec, runOpts);
  } catch (const CheckFailure& f) {
    std::fprintf(stderr, "mbsim: %s\n", f.message.c_str());
    return 2;
  }

  std::printf("workload            %s\n", r.workload.c_str());
  std::printf("phy                 %s\n", interface::phyKindName(cfg.phy).c_str());
  std::printf("ubank (nW,nB)       (%d,%d)\n", cfg.ubank.nW, cfg.ubank.nB);
  std::printf("page policy         %s\n", core::policyKindName(cfg.pagePolicy).c_str());
  std::printf("scheduler           %s\n", mc::schedulerKindName(cfg.scheduler).c_str());
  std::printf("\n");
  std::printf("system IPC          %.3f (%zu cores)\n", r.systemIpc, r.coreIpc.size());
  std::printf("elapsed             %.3f ms\n", toSeconds(r.elapsed) * 1e3);
  std::printf("instructions        %lld\n", static_cast<long long>(r.instructions));
  std::printf("DRAM reads/writes   %lld / %lld (MAPKI %.1f)\n",
              static_cast<long long>(r.dramReads), static_cast<long long>(r.dramWrites),
              r.mapki);
  std::printf("row hit rate        %.3f\n", r.rowHitRate);
  std::printf("predictor hit rate  %.3f\n", r.predictorHitRate);
  std::printf("avg read latency    %.1f ns\n", r.avgReadLatencyNs);
  std::printf("avg queue occupancy %.2f\n", r.avgQueueOccupancy);
  std::printf("data bus util       %.2f\n", r.dataBusUtilization);
  std::printf("prefetch issued     %lld (useful %lld)\n",
              static_cast<long long>(r.hierarchy.prefetchIssued),
              static_cast<long long>(r.hierarchy.prefetchUseful));
  const double sec = toSeconds(r.elapsed);
  std::printf("\nenergy (mJ) / avg power (W):\n");
  auto line = [&](const char* tag, double pj) {
    std::printf("  %-12s %8.3f mJ  %7.3f W\n", tag, pj * 1e-9, pj * 1e-12 / sec);
  };
  line("processor", r.energy.processor);
  line("ACT/PRE", r.energy.dramActPre);
  line("DRAM static", r.energy.dramStatic);
  line("RD/WR", r.energy.dramRdWr);
  line("I/O", r.energy.io);
  line("total", r.energy.total());
  std::printf("\n1/EDP               %.4g (J*s)^-1\n", r.invEdp);

  if (audit) {
    std::printf("\n");
    if (!auditRecordedTrace(recordCmds)) return 1;
  }
  return 0;
}
