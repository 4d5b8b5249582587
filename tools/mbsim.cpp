// mbsim — command-line driver for single simulations.
//
// Runs one workload on one configuration and prints a full report, so the
// library can be driven without writing C++:
//
//   mbsim --workload=429.mcf --nw=4 --nb=4
//   mbsim --workload=TPC-H --phy=ddr3-pcb --policy=close --scheduler=frfcfs
//   mbsim --workload=mix-high --instrs=500000 --ib=6 --seed=7
//
// The configuration comes from the knobs of src/sim/knobs.hpp, which mblint
// takes too: --preset=NAME starts from a shipped preset instead of the TSI
// baseline, wherever it stands, and knob flags (--nw, --phy, --instrs,
// --seed, --timing-check, ...) override it. A usage error prints the knob
// table.
//
// Flags of mbsim itself (all optional):
//   --workload=NAME   SPEC app ("429.mcf"), mix ("mix-high"/"mix-blend"),
//                     a kernel ("RADIX"/"FFT"/"canneal"/"TPC-C"/"TPC-H"),
//                     or recorded traces ("trace:PREFIX" -> PREFIX.<core>.mbt,
//                     written by tools/mbtrace)
//   --record-cmds=PATH  stream every DRAM command to an MBCMDT1 trace
//                     (offline re-verification: tools/mbaudit). Under
//                     --sweep, one trace per preset: PATH gains a
//                     ".<preset>" suffix before its extension
//   --audit           after the run(s), replay the recorded trace(s)
//                     through the offline auditor and fail (exit 1) on any
//                     MB-AUD violation; implies --record-cmds (default
//                     "mbsim-cmds.mbc" when not given)
//   --shards=N        threads inside ONE simulation, the calling thread
//                     included: the channel-sharded engine (DESIGN.md §14)
//                     distributes memory channels over N threads (a pool of
//                     N - 1 plus the caller). Reports, command traces and
//                     snapshots are byte-identical for every N; the knob
//                     trades threads for wall-clock only
//   --version         print tool + MBTRACE1/MBCMDT1/MBCKPT1 format versions
//
// Every numeric flag takes a whole decimal integer ("1e5", "7x" or a count
// outside its range exit 2 with a usage message naming the range): --warmup,
// --jobs and --shards are >= 1 and --checkpoint-at >= 0; a knob's range is
// in its table row.
//
// Checkpoint / restore (MBCKPT1 snapshots, see src/ckpt/snapshot.hpp):
//   --checkpoint-at=PS  capture a full-run snapshot at the first event
//                     boundary at or after PS picoseconds of sim time
//                     (a PS past the end snapshots the final state)
//   --checkpoint=PATH where to write the snapshot (required with
//                     --checkpoint-at); the run continues to completion
//   --restore-from=PATH  skip the cold start: restore the snapshot and
//                     resume — the final report is bit-identical to the
//                     run that produced the snapshot. --warmup=N is
//                     accepted (and ignored), so the checkpointing command
//                     line can be reused; --warmup-load is a usage error
//   --warmup=N        functional cache warmup: N trace records per core
//                     replayed through the hierarchy before the timed run
//   --warmup-save=PATH  run ONLY the functional warmup and save it as a
//                     reusable warmup snapshot (no timed simulation);
//                     --checkpoint-at, --checkpoint, --restore-from,
//                     --warmup-load, --record-cmds and --audit are usage
//                     errors next to it
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
//                     mbserve sweep submit (serve::planJob + serve::runPlan):
//                     the presets own the architecture, and only the
//                     --instrs and --seed knobs carry over. Every point runs
//                     cold from the start, so --preset, any other knob flag,
//                     and the warm-up and checkpoint flags are usage errors
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
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "analysis/config_lint.hpp"
#include "common/check.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "mc/trace_audit.hpp"
#include "serve/run_plan.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/knobs.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mbsim: %s\n(see the header of tools/mbsim.cpp for its own flags)\n%s",
               msg, sim::knobHelp().c_str());
  std::exit(2);
}

/// `value` as a whole decimal integer in [lo, hi]; anything else is a usage
/// error naming the range.
std::int64_t intFlag(const std::string& value, const char* flag, std::int64_t lo,
                     std::int64_t hi = INT_MAX) {
  const auto v = parseInt(value, lo, hi);
  if (!v) usage(intFlagError(flag, value, lo, hi).c_str());
  return *v;
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
  const auto res = mc::auditCmdTrace(*trace, diags);
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
  const sim::KnobArgs knobs = sim::parseKnobs({argv + 1, argv + argc}, cfg);
  if (!knobs.error.empty()) usage(knobs.error.c_str());
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

  for (const std::string& arg : knobs.rest) {
    if (arg == "--version") {
      std::printf("%s", versionBanner("mbsim").c_str());
      return 0;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--reseed") {
      reseed = true;
    } else if (matchFlag(arg, "jobs", &value)) {
      jobs = static_cast<int>(intFlag(value, "--jobs", 1));
    } else if (matchFlag(arg, "shards", &value)) {
      runOpts.shards = static_cast<int>(intFlag(value, "--shards", 1));
    } else if (matchFlag(arg, "workload", &value)) {
      workload = value;
    } else if (matchFlag(arg, "record-cmds", &value)) {
      if (value.empty()) usage("--record-cmds expects a file path");
      recordCmds = value;
    } else if (arg == "--audit") {
      audit = true;
    } else if (matchFlag(arg, "checkpoint-at", &value)) {
      runOpts.checkpointAt = intFlag(value, "--checkpoint-at", 0, INT64_MAX);
    } else if (matchFlag(arg, "checkpoint", &value)) {
      if (value.empty()) usage("--checkpoint expects a file path");
      runOpts.checkpointPath = value;
    } else if (matchFlag(arg, "restore-from", &value)) {
      if (value.empty()) usage("--restore-from expects a file path");
      runOpts.restorePath = value;
    } else if (matchFlag(arg, "warmup", &value)) {
      runOpts.warmupRecords = intFlag(value, "--warmup", 1, INT64_MAX);
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
  // A flag the chosen mode would drop is a usage error rather than a
  // silently different run.
  struct Mode {
    bool active;
    const char* flag;
    const char* what;
  };
  const auto drops = [](const Mode& mode, bool given, const std::string& flag) {
    if (mode.active && given)
      usage((flag + " does not apply to " + mode.flag + ", which " + mode.what).c_str());
  };
  const Mode inSweep{sweep, "--sweep",
                     "runs every preset cold and takes only --instrs and --seed of "
                     "the knobs"};
  const Mode inCapture{!warmupSave.empty(), "--warmup-save",
                       "only captures the warm-up and runs no timed simulation"};
  const Mode inRestore{!runOpts.restorePath.empty(), "--restore-from",
                       "takes the whole state, warm-up included, from its snapshot"};
  drops(inSweep, !knobs.preset.empty(), "--preset");
  for (const std::string& flag : knobs.knobsSet)
    drops(inSweep, flag != "instrs" && flag != "seed", "--" + flag);
  drops(inSweep, runOpts.warmupRecords > 0, "--warmup");
  drops(inSweep, !warmupSave.empty(), "--warmup-save");
  for (const Mode& mode : {inSweep, inCapture}) {
    drops(mode, !runOpts.warmupRestorePath.empty(), "--warmup-load");
    drops(mode, runOpts.checkpointAt >= 0, "--checkpoint-at");
    drops(mode, !runOpts.checkpointPath.empty(), "--checkpoint");
    drops(mode, !runOpts.restorePath.empty(), "--restore-from");
  }
  drops(inCapture, !recordCmds.empty(), "--record-cmds");
  drops(inCapture, audit, "--audit");
  drops(inRestore, !runOpts.warmupRestorePath.empty(), "--warmup-load");

  // Pre-flight static analysis: reject an invalid configuration with
  // structured diagnostics before any simulation tick runs.
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
