#include "sim/system.hpp"

#include <algorithm>
#include <cstdio>

#include "ckpt/restore.hpp"
#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "common/event_queue.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "core/address_map.hpp"
#include "sim/shard.hpp"
#include "trace/trace_file.hpp"

namespace mb::sim {

dram::Geometry deriveGeometry(const SystemConfig& cfg, int channels) {
  dram::Geometry g;
  g.channels = channels;
  g.ranksPerChannel = interface::PhyModel::make(cfg.phy).ranksPerChannel;
  g.banksPerRank = 8;  // 8 banks per channel-die (§IV-B)
  g.ubank = cfg.ubank;
  g.rowBytes = 8 * kKiB;
  g.capacityBytes = std::max<std::int64_t>(4 * kGiB, 4 * kGiB * channels);
  return g;
}

dram::Geometry geometryFor(const SystemConfig& cfg, int channels) {
  const dram::Geometry g = deriveGeometry(cfg, channels);
  MB_CHECK_MSG(g.valid(),
               "derived geometry invalid (run mblint): ch=%d rk=%d nW=%d nB=%d",
               g.channels, g.ranksPerChannel, g.ubank.nW, g.ubank.nB);
  return g;
}

std::optional<WorkloadSpec> workloadByName(const std::string& name) {
  if (startsWith(name, "trace:")) return WorkloadSpec::traceFiles(name.substr(6));
  if (name == "mix-high" || name == "mix-blend") return WorkloadSpec::mix(name);
  for (auto kind : {trace::MtKind::Radix, trace::MtKind::Fft, trace::MtKind::Canneal,
                    trace::MtKind::TpcC, trace::MtKind::TpcH}) {
    if (name == trace::mtKindName(kind)) return WorkloadSpec::mt(kind);
  }
  for (const auto& app : trace::specProfiles())
    if (app.name == name) return WorkloadSpec::spec(name);
  return std::nullopt;
}

void applyWorkloadShape(SystemConfig& cfg, const WorkloadSpec& workload) {
  if (workload.kind == WorkloadSpec::Kind::SingleSpec ||
      workload.kind == WorkloadSpec::Kind::TraceFile)
    return;
  cfg.hier.numCores = 64;
  cfg.hier.coresPerCluster = 4;
  if (cfg.channels < 0) cfg.channels = interface::PhyModel::make(cfg.phy).channels;
}

int resolvedChannels(const SystemConfig& cfg, const WorkloadSpec& workload) {
  int channels = cfg.channels;
  if (workload.kind == WorkloadSpec::Kind::SingleSpec ||
      workload.kind == WorkloadSpec::Kind::TraceFile) {
    if (channels < 0) channels = 1;  // §VI-A: one MC for single-threaded runs
  } else if (channels < 0) {
    channels = interface::PhyModel::make(cfg.phy).channels;
  }
  return channels;
}

dram::TimingParams effectiveTiming(const SystemConfig& cfg) {
  dram::TimingParams timing = interface::PhyModel::make(cfg.phy).timing;
  if (cfg.scaleActWindowWithRowSize && cfg.ubank.nW > 1) {
    // A 1/nW-sized row draws ~1/nW of the activation current, so the rank
    // power-delivery window admits activates proportionally faster.
    timing.tRRD = std::max<Tick>(timing.tRRD / cfg.ubank.nW, timing.tCMD);
    timing.tFAW = std::max<Tick>(timing.tFAW / cfg.ubank.nW, 4 * timing.tRRD);
  }
  return timing;
}

int resolvedBaseBit(const SystemConfig& cfg, const dram::Geometry& geom) {
  return cfg.interleaveBaseBit < 0 ? 6 + exactLog2(geom.linesPerUbankRow())
                                   : cfg.interleaveBaseBit;
}

mc::CmdTraceConfig cmdTraceConfigFor(const SystemConfig& cfg,
                                     const WorkloadSpec& workload) {
  mc::CmdTraceConfig tc;
  tc.geom = geometryFor(cfg, resolvedChannels(cfg, workload));
  tc.timing = effectiveTiming(cfg);
  tc.energy = interface::PhyModel::make(cfg.phy).energy;
  tc.interleaveBaseBit = resolvedBaseBit(cfg, tc.geom);
  tc.xorBankHash = cfg.xorBankHash;
  return tc;
}

namespace {

struct BuiltSystem {
  EventQueue eq;  // the CPU shard: hierarchy + cores (shard id = nChannels)
  /// One queue per memory channel (shard id = channel index). Every queue
  /// exists at every --shards value; the worker count only decides how the
  /// channel phase is executed, never how events are ordered.
  std::vector<std::unique_ptr<EventQueue>> chQs;
  dram::Geometry geom;
  std::vector<std::unique_ptr<mc::MemoryController>> mcs;
  std::unique_ptr<cpu::MemoryHierarchy> hier;
  std::vector<std::unique_ptr<trace::TraceSource>> traces;
  std::vector<std::unique_ptr<cpu::RobCore>> cores;
  std::unique_ptr<mc::CommandLogWriter> cmdLog;
  /// Per-channel command capture (recordCmdsPath runs): drained into cmdLog
  /// by the engine once per window in deterministic merge order.
  std::vector<std::unique_ptr<BufferedCommandLog>> cmdBufs;
  cpu::HierarchyConfig hierCfg;
  int numCores = 0;
  int coresDone = 0;
};

/// The hierarchy configuration a run of (cfg, workload) actually uses:
/// single-threaded workloads collapse to one specCopies-core cluster, and
/// the memory-link latency comes from the PHY.
cpu::HierarchyConfig resolvedHierConfig(const SystemConfig& cfg,
                                        const WorkloadSpec& workload) {
  cpu::HierarchyConfig hierCfg = cfg.hier;
  if (workload.kind == WorkloadSpec::Kind::SingleSpec ||
      workload.kind == WorkloadSpec::Kind::TraceFile) {
    hierCfg.numCores = cfg.specCopies;
    hierCfg.coresPerCluster = cfg.specCopies;  // one cluster shares the L2
  }
  hierCfg.memLinkLatency = interface::PhyModel::make(cfg.phy).linkLatency;
  return hierCfg;
}

void buildMemorySystem(const SystemConfig& cfg, const WorkloadSpec& workload,
                       BuiltSystem& sys) {
  const int channels = resolvedChannels(cfg, workload);
  MB_CHECK(channels >= 1);
  const auto phy = interface::PhyModel::make(cfg.phy);
  sys.geom = geometryFor(cfg, channels);
  const int baseBit = resolvedBaseBit(cfg, sys.geom);
  core::AddressMap map(sys.geom, baseBit, cfg.xorBankHash);

  mc::ControllerConfig mcCfg;
  mcCfg.queueDepth = cfg.queueDepth;
  mcCfg.scheduler = cfg.scheduler;
  mcCfg.pagePolicy = cfg.pagePolicy;
  mcCfg.enableTimingCheck = cfg.timingCheck;
  mcCfg.refreshEnabled = cfg.refresh;
  mcCfg.perBankRefresh = cfg.perBankRefresh;

  const dram::TimingParams timing = effectiveTiming(cfg);

  if (!cfg.recordCmdsPath.empty())
    sys.cmdLog = std::make_unique<mc::CommandLogWriter>(
        cfg.recordCmdsPath, cmdTraceConfigFor(cfg, workload));

  // Shard decomposition: channel c stamps with shard id c, the CPU queue
  // with id nChannels. The ids pin the (unreachable in running simulations)
  // final stamp tiebreak; execution order never depends on them.
  sys.eq.setShardId(channels);
  for (int ch = 0; ch < channels; ++ch) {
    sys.chQs.push_back(std::make_unique<EventQueue>());
    sys.chQs.back()->setShardId(ch);
    if (sys.cmdLog) {
      sys.cmdBufs.push_back(
          std::make_unique<BufferedCommandLog>(*sys.chQs.back()));
      mcCfg.commandLog = sys.cmdBufs.back().get();
    }
    sys.mcs.push_back(std::make_unique<mc::MemoryController>(
        ch, sys.geom, timing, phy.energy, map, mcCfg, *sys.chQs.back()));
  }
}

/// Build the full system for (cfg, workload): memory side, hierarchy, trace
/// sources, cores with completion wiring. The cores are NOT started — the
/// caller either starts them (fresh run) or restores a snapshot first.
std::unique_ptr<BuiltSystem> buildSystem(const SystemConfig& cfg,
                                         const WorkloadSpec& workload) {
  const cpu::HierarchyConfig hierCfg = resolvedHierConfig(cfg, workload);
  auto sys = std::make_unique<BuiltSystem>();
  sys->hierCfg = hierCfg;
  buildMemorySystem(cfg, workload, *sys);
  sys->hier = std::make_unique<cpu::MemoryHierarchy>(hierCfg, sys->mcs, sys->eq);

  // ---- Workload placement -------------------------------------------------
  const int numCores = hierCfg.numCores;
  sys->numCores = numCores;
  std::vector<std::string> appNames;  // for Single/Mix
  switch (workload.kind) {
    case WorkloadSpec::Kind::SingleSpec: {
      // One independently seeded slice per core (top-4 SimPoints, §VI-A).
      appNames.assign(static_cast<size_t>(numCores), workload.name);
      break;
    }
    case WorkloadSpec::Kind::Mix: {
      appNames = trace::mixWorkload(workload.name, numCores);
      break;
    }
    case WorkloadSpec::Kind::Multithreaded: {
      trace::MtParams mt;
      mt.kind = workload.mtKind;
      mt.numThreads = numCores;
      mt.seed = cfg.seed;
      for (int c = 0; c < numCores; ++c)
        sys->traces.push_back(trace::makeMtSource(mt, c));
      break;
    }
    case WorkloadSpec::Kind::TraceFile: {
      for (int c = 0; c < numCores; ++c) {
        sys->traces.push_back(std::make_unique<trace::TraceFileSource>(
            trace::traceFilePath(workload.name, c)));
      }
      break;
    }
  }
  if (!appNames.empty()) {
    for (int c = 0; c < numCores; ++c) {
      trace::SyntheticParams p = trace::specProfile(appNames[static_cast<size_t>(c)]).params;
      // Private 8 GiB address slice per core: no unintended sharing between
      // the independent programs of a mix.
      p.baseAddr = static_cast<std::uint64_t>(c) << 33;
      p.seed = cfg.seed * 1000003 + static_cast<std::uint64_t>(c);
      sys->traces.push_back(std::make_unique<trace::SyntheticSource>(p));
    }
  }

  BuiltSystem* raw = sys.get();
  for (int c = 0; c < numCores; ++c) {
    sys->cores.push_back(std::make_unique<cpu::RobCore>(
        c, cfg.core, *sys->traces[static_cast<size_t>(c)], *sys->hier, sys->eq));
    sys->cores.back()->setOnDone([raw] { ++raw->coresDone; });
  }
  return sys;
}

/// Replay `records` trace records per core through the hierarchy in
/// functional mode (zero latency, no events), then reset the access stats so
/// the timed run measures only post-warmup behaviour. The cold path and the
/// snapshot-capture path run this identical loop, so a restored warmup is
/// bitwise-equivalent to a cold one by construction.
void runFunctionalWarmup(BuiltSystem& sys, std::int64_t records) {
  sys.hier->setFunctionalMode(true);
  for (std::int64_t i = 0; i < records; ++i) {
    for (int c = 0; c < sys.numCores; ++c) {
      const trace::Record rec = sys.traces[static_cast<size_t>(c)]->next();
      sys.hier->warmAccess(c, rec.addr, rec.write);
    }
  }
  sys.hier->setFunctionalMode(false);
  sys.hier->resetStats();
}

[[noreturn]] void rejectSnapshot(analysis::Diagnostic d) {
  // Same disposition as a malformed trace file (trace/trace_file.cpp):
  // abort with the rendered diagnostic by default, catchable CheckFailure
  // under ScopedCheckTrap so tests and the sweep runner can observe it.
  mb::detail::raiseCheckFailure(d.text());
}

/// Decode the snapshot in `*buf`, or read it from `path` when `buf` is
/// null; a snapshot that fails to decode rejects the run with its MB-CKP
/// diagnostic.
ckpt::Snapshot loadSnapshot(const std::string* buf, const std::string& path) {
  analysis::DiagnosticEngine diags;
  auto snap = buf != nullptr ? ckpt::decodeSnapshot(*buf, diags)
                             : ckpt::readSnapshotFile(path, diags);
  if (!snap) rejectSnapshot(diags.diagnostics().back());
  return std::move(*snap);
}

analysis::Diagnostic malformedSection(const std::string& name, const std::string& label) {
  return ckpt::ckptDiag("MB-CKP-012", "malformed section payload '" + name + "'", label);
}

/// Run `fn`, one step of restoring section `name`, under a check trap of
/// its own: a check that hostile bytes trip while a component loads or
/// re-arms its events (an event due before the capture time, a core id the
/// run does not have) rejects the snapshot as MB-CKP-012 for that section.
template <typename Fn>
void inSection(const std::string& name, const std::string& label, Fn&& fn) {
  std::string failure;
  {
    ScopedCheckTrap trap;
    try {
      fn();
    } catch (const CheckFailure& f) {
      failure = f.message;
    }
  }
  if (!failure.empty()) rejectSnapshot(malformedSection(name, label).with("check", failure));
}

/// Fetch a named section and drive `loadFn` over it; MB-CKP-010 when the
/// section is absent, MB-CKP-012 when the payload does not parse cleanly.
template <typename LoadFn>
void loadSection(const ckpt::Snapshot& snap, const std::string& name,
                 const std::string& label, LoadFn&& loadFn) {
  const ckpt::SnapshotSection* sec = snap.section(name);
  if (sec == nullptr) {
    rejectSnapshot(
        ckpt::ckptDiag("MB-CKP-010", "missing required section '" + name + "'", label));
  }
  ckpt::Reader r(sec->payload);
  inSection(name, label, [&] { loadFn(r); });
  if (!r.ok() || !r.atEnd()) rejectSnapshot(malformedSection(name, label));
}

ckpt::SnapshotGeometry snapshotGeometry(const dram::Geometry& g) {
  ckpt::SnapshotGeometry sg;
  sg.channels = g.channels;
  sg.ranksPerChannel = g.ranksPerChannel;
  sg.banksPerRank = g.banksPerRank;
  sg.nW = g.ubank.nW;
  sg.nB = g.ubank.nB;
  return sg;
}

std::string mcSectionName(std::size_t i) { return "MC" + std::to_string(i); }

/// Capture the complete state of a running system as a full-run snapshot.
/// Only taken at window boundaries (all queues quiescent between windows);
/// `snap.now` is the latest queue clock — the tick of the last fired event,
/// which is shard-invariant.
ckpt::Snapshot makeFullSnapshot(const BuiltSystem& sys,
                                const ShardedEngine& engine,
                                const SystemConfig& cfg,
                                const WorkloadSpec& workload) {
  ckpt::Snapshot snap;
  snap.kind = ckpt::SnapshotKind::FullRun;
  snap.configHash = systemConfigHash(cfg, workload);
  snap.now = engine.maxNow();
  snap.geometry = snapshotGeometry(sys.geom);
  snap.tool = versionString();
  snap.workload = workload.name;
  {
    ckpt::Writer w;
    for (const auto& t : sys.traces) t->save(w);
    snap.addSection("TRACE", w.take());
  }
  {
    ckpt::Writer w;
    for (const auto& c : sys.cores) c->save(w);
    snap.addSection("CORES", w.take());
  }
  {
    ckpt::Writer w;
    sys.hier->save(w);
    snap.addSection("HIER", w.take());
  }
  for (std::size_t i = 0; i < sys.mcs.size(); ++i) {
    ckpt::Writer w;
    sys.mcs[i]->save(w);
    snap.addSection(mcSectionName(i), w.take());
  }
  {
    ckpt::Writer w;
    engine.save(w);
    snap.addSection("ENG", w.take());
  }
  return snap;
}

/// Restore a full-run snapshot into a freshly built (never started) system:
/// semantic validation, per-component state loads, clock restore, and
/// pending-event re-arming in original firing order.
void restoreFullRun(BuiltSystem& sys, ShardedEngine& engine,
                    const SystemConfig& cfg, const WorkloadSpec& workload,
                    const ckpt::Snapshot& snap, const std::string& label) {
  if (snap.kind != ckpt::SnapshotKind::FullRun) {
    rejectSnapshot(ckpt::ckptDiag("MB-CKP-005",
                                  "snapshot kind mismatch: expected a full-run "
                                  "checkpoint, found a warmup snapshot",
                                  label));
  }
  const std::uint64_t expectHash = systemConfigHash(cfg, workload);
  if (snap.configHash != expectHash) {
    rejectSnapshot(ckpt::ckptDiag("MB-CKP-004",
                                  "config hash mismatch: snapshot belongs to a "
                                  "different configuration or workload",
                                  label)
                       .with("snapshotConfigHash",
                             static_cast<std::int64_t>(snap.configHash))
                       .with("expectedConfigHash",
                             static_cast<std::int64_t>(expectHash)));
  }
  if (snap.geometry != snapshotGeometry(sys.geom)) {
    rejectSnapshot(ckpt::ckptDiag("MB-CKP-009",
                                  "geometry mismatch between snapshot and the "
                                  "configuration being restored into",
                                  label));
  }

  // Wire the callback rebuilders before any state loads. Both take a core
  // id from the snapshot, so both check it names a core of this run; a read
  // completion also needs the fill its data lands in (HIER loads first).
  BuiltSystem* raw = &sys;
  sys.hier->waiterResolver = [raw](CoreId core, int tag) {
    MB_CHECK(core >= 0 && static_cast<size_t>(core) < raw->cores.size());
    return raw->cores[static_cast<size_t>(core)]->makeMemCallback(tag);
  };
  for (auto& mcPtr : sys.mcs) {
    mcPtr->completionFactory = [raw](std::uint64_t addr, CoreId core) {
      MB_CHECK(raw->hier->awaitsFill(addr, core));
      return raw->hier->makeReadCompletion(addr, core);
    };
  }

  loadSection(snap, "TRACE", label, [&](ckpt::Reader& r) {
    for (auto& t : sys.traces) t->load(r);
  });
  loadSection(snap, "CORES", label, [&](ckpt::Reader& r) {
    for (auto& c : sys.cores) c->load(r);
  });
  loadSection(snap, "HIER", label,
              [&](ckpt::Reader& r) { sys.hier->load(r); });
  for (std::size_t i = 0; i < sys.mcs.size(); ++i) {
    loadSection(snap, mcSectionName(i), label,
                [&](ckpt::Reader& r) { sys.mcs[i]->load(r); });
  }
  loadSection(snap, "ENG", label, [&](ckpt::Reader& r) { engine.load(r); });
  // A buffered admission sits in its line's channel lane and names a core
  // of this run, and a read also the fill its data lands in.
  inSection("ENG", label, [&] {
    const core::AddressMap& map = sys.mcs.front()->addressMap();
    engine.forEachAdmission([&](ChannelId ch, std::uint64_t line, CoreId core, bool write) {
      MB_CHECK(map.decompose(line).channel == ch);
      MB_CHECK(write ? core >= 0 && static_cast<size_t>(core) < sys.cores.size()
                     : sys.hier->awaitsFill(line, core));
    });
  });

  // Re-arm every pending event under its original stamp; the stamps ARE the
  // merge order, so the order the components re-arm in carries no
  // information. Each section's events are re-armed under its own trap, so
  // one due before the capture time is that section's MB-CKP-012.
  inSection("ENG", label, [&] { engine.restoreClocks(snap.now); });
  inSection("CORES", label, [&] {
    for (auto& c : sys.cores) c->reschedule();
  });
  inSection("HIER", label, [&] { sys.hier->reschedule(); });
  for (std::size_t i = 0; i < sys.mcs.size(); ++i)
    inSection(mcSectionName(i), label, [&] { sys.mcs[i]->reschedule(); });

  sys.coresDone = 0;
  for (const auto& c : sys.cores)
    if (c->done()) ++sys.coresDone;
}

/// Restore a warmup snapshot (trace + hierarchy state) into a fresh system.
void restoreWarmup(BuiltSystem& sys, std::uint64_t expectKey,
                   const ckpt::Snapshot& snap, const std::string& label) {
  if (snap.kind != ckpt::SnapshotKind::Warmup) {
    rejectSnapshot(ckpt::ckptDiag("MB-CKP-005",
                                  "snapshot kind mismatch: expected a warmup "
                                  "snapshot, found a full-run checkpoint",
                                  label));
  }
  if (snap.warmupKey != expectKey) {
    rejectSnapshot(ckpt::ckptDiag("MB-CKP-005",
                                  "warmup key mismatch: snapshot was captured for "
                                  "a different workload / core / cache / warmup-"
                                  "length combination",
                                  label)
                       .with("snapshotWarmupKey",
                             static_cast<std::int64_t>(snap.warmupKey))
                       .with("expectedWarmupKey", static_cast<std::int64_t>(expectKey)));
  }
  loadSection(snap, "TRACE", label, [&](ckpt::Reader& r) {
    for (auto& t : sys.traces) t->load(r);
  });
  loadSection(snap, "HIER", label,
              [&](ckpt::Reader& r) { sys.hier->load(r); });
}

void encodeWorkload(ckpt::Writer& w, const WorkloadSpec& workload) {
  w.u8(static_cast<std::uint8_t>(workload.kind));
  w.str(workload.name);
  w.u8(static_cast<std::uint8_t>(workload.mtKind));
}

void encodeHierConfig(ckpt::Writer& w, const cpu::HierarchyConfig& h) {
  w.i32(h.numCores);
  w.i32(h.coresPerCluster);
  w.i64(h.l1Bytes);
  w.i32(h.l1Assoc);
  w.i64(h.l2Bytes);
  w.i32(h.l2Assoc);
  w.i64(h.cyclePs);
  w.i32(h.l1LatCycles);
  w.i32(h.l2LatCycles);
  w.i32(h.dirLatCycles);
  w.i32(h.nocPerHopCycles);
  w.i32(h.fillLatCycles);
  w.i64(h.memLinkLatency);
  w.b(h.enablePrefetch);
  w.i32(h.prefetchDegree);
  w.i32(h.prefetchStreams);
  w.i32(h.prefetchMaxStrideLines);
}

/// Build a warmup snapshot from a system that just ran the functional
/// warmup: trace cursors + hierarchy (cache/directory/prefetcher) state.
ckpt::Snapshot makeWarmupSnapshot(const BuiltSystem& sys, std::uint64_t key,
                                  const WorkloadSpec& workload) {
  ckpt::Snapshot snap;
  snap.kind = ckpt::SnapshotKind::Warmup;
  snap.warmupKey = key;
  snap.tool = versionString();
  snap.workload = workload.name;
  {
    ckpt::Writer w;
    for (const auto& t : sys.traces) t->save(w);
    snap.addSection("TRACE", w.take());
  }
  {
    ckpt::Writer w;
    sys.hier->save(w);
    snap.addSection("HIER", w.take());
  }
  return snap;
}

}  // namespace

std::uint64_t systemConfigHash(const SystemConfig& cfg, const WorkloadSpec& workload) {
  ckpt::Writer w;
  w.u8(static_cast<std::uint8_t>(cfg.phy));
  w.i32(cfg.ubank.nW);
  w.i32(cfg.ubank.nB);
  w.i32(resolvedChannels(cfg, workload));
  w.i32(cfg.specCopies);
  w.u8(static_cast<std::uint8_t>(cfg.pagePolicy));
  w.u8(static_cast<std::uint8_t>(cfg.scheduler));
  w.i32(cfg.interleaveBaseBit);
  w.b(cfg.xorBankHash);
  w.i32(cfg.queueDepth);
  w.b(cfg.refresh);
  w.b(cfg.perBankRefresh);
  w.b(cfg.scaleActWindowWithRowSize);
  w.b(cfg.timingCheck);
  encodeHierConfig(w, resolvedHierConfig(cfg, workload));
  w.i32(cfg.core.issueWidth);
  w.i32(cfg.core.robSize);
  w.i64(cfg.core.cyclePs);
  w.i32(cfg.core.execLatCycles);
  w.i32(cfg.core.mshrs);
  w.i32(cfg.core.storeBuffer);
  w.i64(cfg.core.runAheadQuantum);
  w.i64(cfg.core.maxInstrs);
  w.u64(cfg.seed);
  encodeWorkload(w, workload);
  return ckpt::fnv1a64(w.str());
}

std::uint64_t warmupKeyHash(const SystemConfig& cfg, const WorkloadSpec& workload,
                            std::int64_t warmupRecords) {
  ckpt::Writer w;
  encodeWorkload(w, workload);
  w.u64(cfg.seed);
  // Only the processor-side shape matters for warmup state; zero out the
  // PHY-derived link latency so one snapshot serves every memory config.
  cpu::HierarchyConfig h = resolvedHierConfig(cfg, workload);
  h.memLinkLatency = 0;
  encodeHierConfig(w, h);
  w.i64(warmupRecords);
  return ckpt::fnv1a64(w.str());
}

std::string captureWarmupSnapshot(const SystemConfig& cfg, const WorkloadSpec& workload,
                                  std::int64_t warmupRecords) {
  MB_CHECK(warmupRecords > 0);
  auto sys = buildSystem(cfg, workload);
  runFunctionalWarmup(*sys, warmupRecords);
  const std::uint64_t key = warmupKeyHash(cfg, workload, warmupRecords);
  return makeWarmupSnapshot(*sys, key, workload).encode();
}

RunResult runSimulation(const SystemConfig& cfg, const WorkloadSpec& workload) {
  return runSimulation(cfg, workload, RunOptions{});
}

RunResult runSimulation(const SystemConfig& cfg, const WorkloadSpec& workload,
                        const RunOptions& opts) {
  const bool restoring = !opts.restorePath.empty();
  const bool checkpointing = opts.checkpointAt >= 0 && !opts.checkpointPath.empty();
  MB_CHECK_MSG(cfg.recordCmdsPath.empty() || (!restoring && !checkpointing),
               "checkpoint/restore is incompatible with command recording "
               "(recordCmdsPath): the MBCMDT1 stream cannot be split");

  auto sys = buildSystem(cfg, workload);
  const int numCores = sys->numCores;

  // ---- Sharded engine -------------------------------------------------------
  // Used at every --shards value (1 included): the decomposition into one
  // queue per channel plus the CPU queue, the conservative windows, and the
  // mailbox merge order are identical at any worker count, which is what
  // makes the results byte-identical by construction (DESIGN.md §14).
  ShardedEngine engine(sys->eq, sys->chQs, *sys->hier, sys->mcs, effectiveTiming(cfg),
                       opts.shards);
  BuiltSystem* raw = sys.get();
  if (sys->cmdLog) {
    std::vector<BufferedCommandLog*> bufs;
    for (auto& b : sys->cmdBufs) bufs.push_back(b.get());
    engine.setCommandMerge(std::move(bufs), sys->cmdLog.get());
  }

  if (restoring) {
    restoreFullRun(*sys, engine, cfg, workload, loadSnapshot(nullptr, opts.restorePath),
                   opts.restorePath);
  } else {
    if (opts.warmupRestoreBuf != nullptr || !opts.warmupRestorePath.empty()) {
      const std::uint64_t key = warmupKeyHash(cfg, workload, opts.warmupRecords);
      const std::string label =
          opts.warmupRestoreBuf != nullptr ? "<memory>" : opts.warmupRestorePath;
      restoreWarmup(*sys, key, loadSnapshot(opts.warmupRestoreBuf, opts.warmupRestorePath),
                    label);
    } else if (opts.warmupRecords > 0) {
      runFunctionalWarmup(*sys, opts.warmupRecords);
    }
    for (auto& corePtr : sys->cores) corePtr->start();
  }

  // ---- Run ----------------------------------------------------------------
  bool wroteCkpt = false;
  const auto writeCheckpoint = [&] {
    analysis::DiagnosticEngine diags;
    if (!ckpt::writeSnapshotFile(makeFullSnapshot(*sys, engine, cfg, workload),
                                 opts.checkpointPath, diags)) {
      rejectSnapshot(diags.diagnostics().back());
    }
    wroteCkpt = true;
  };
  // A core that has not reached its budget and retires nothing for
  // kStallBound of simulated time waits for a response nothing will deliver
  // (a restored snapshot that lost an admission): the finished cores keep
  // issuing to keep the memory system loaded, so the run would otherwise go
  // on to the event cap. The stop predicate samples each unfinished core's
  // retired count every 2^16 calls. The longest gap between two retirements
  // of one core is 0.7 us over the golden presets and 4.3 us over the
  // shard-differential grid; the bound is over 200 times that, so only a
  // core that can never retire again reaches it. The check reads only
  // simulated state, so a stall fails at the same point at any shard count.
  constexpr Tick kStallBound = kMillisecond;
  struct Progress {
    std::int64_t retired = -1;
    Tick since = 0;
  };
  std::vector<Progress> progress(static_cast<std::size_t>(numCores));
  std::uint32_t stopCalls = 0;
  const auto checkProgress = [&] {
    const Tick now = sys->eq.now();
    for (int c = 0; c < numCores; ++c) {
      const cpu::RobCore& core = *sys->cores[static_cast<std::size_t>(c)];
      Progress& p = progress[static_cast<std::size_t>(c)];
      if (core.done() || core.instrsRetired() != p.retired) {
        p = {core.instrsRetired(), now};
      } else if (now - p.since > kStallBound) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "core %d retired nothing from %lldps to %lldps (%lld of %lld "
                      "instructions)",
                      c, static_cast<long long>(p.since), static_cast<long long>(now),
                      static_cast<long long>(p.retired),
                      static_cast<long long>(cfg.core.maxInstrs));
        if (restoring) {
          rejectSnapshot(ckpt::ckptDiag("MB-CKP-013", "restored run stalled: " + std::string(msg),
                                        opts.restorePath));
        }
        MB_CHECK_MSG(false, "run stalled: %s", msg);
      }
    }
  };
  engine.run(checkpointing ? opts.checkpointAt : -1, writeCheckpoint, [&] {
    if (raw->coresDone >= numCores) return true;
    if ((++stopCalls & 0xFFFFu) == 0) checkProgress();
    return false;
  });
  MB_CHECK_MSG(sys->coresDone == numCores,
               "event queue drained with only %d/%d cores finished (workload %s)",
               sys->coresDone, numCores, workload.name.c_str());
  if (checkpointing && !wroteCkpt) {
    // The run finished before the requested tick: checkpoint the final state
    // (a restore then resumes into immediate completion).
    writeCheckpoint();
  }

  // ---- Collect ------------------------------------------------------------
  RunResult r;
  r.workload = workload.name;
  r.eventsProcessed = engine.processedCount();
  r.windows = engine.windowsRun();
  r.windowsCut = engine.windowsCut();
  Tick elapsed = 0;
  for (const auto& corePtr : sys->cores) {
    elapsed = std::max(elapsed, corePtr->finishTick());
    r.instructions += corePtr->instrsRetired();
    r.coreIpc.push_back(corePtr->ipc());
    r.systemIpc += corePtr->ipc();
  }
  r.elapsed = std::max<Tick>(elapsed, 1);

  power::SystemEnergyBreakdown e;
  std::int64_t rowHits = 0, rowTotal = 0, specDec = 0, specOk = 0;
  std::int64_t meterActs = 0, meterCas = 0, meterRefs = 0;
  double queueOccSum = 0.0, latSum = 0.0, busSum = 0.0;
  std::int64_t latCount = 0;
  // Shard-order audit: the double sums below are reduced HERE,
  // on the main thread, after the engine has fully drained, and always by
  // walking sys->mcs in channel-index order — never in the order worker
  // threads happened to finish their windows. FP addition is
  // non-associative, so reducing in completion order would make the report
  // depend on scheduling; StatsOrder and ShardDifferential pin this contract.
  for (auto& mcPtr : sys->mcs) {
    mcPtr->finalize(r.elapsed);
    const auto s = mcPtr->stats();
    const auto& m = mcPtr->energyMeter();
    e.dramActPre += m.actPre();
    e.dramRdWr += m.rdwr();
    e.io += m.io();
    e.dramStatic += m.staticEnergy();
    meterActs += m.activations();
    meterCas += m.casOps();
    meterRefs += m.refreshes();
    rowHits += s.rowHits;
    rowTotal += s.rowHits + s.rowMisses + s.rowConflicts;
    specDec += s.specDecisions;
    specOk += s.specCorrect;
    queueOccSum += s.avgQueueOccupancy;
    busSum += s.dataBusUtilization;
    if (s.reads > 0) {
      latSum += s.avgReadLatencyNs * static_cast<double>(s.reads);
      latCount += s.reads;
    }
    r.dramReads += s.reads;
    r.dramWrites += s.writes;
    r.activations += s.activations;
  }
  r.rowHitRate = rowTotal == 0 ? 0.0
                               : static_cast<double>(rowHits) / static_cast<double>(rowTotal);
  // The perfect oracle never records a speculation: report it as 1.0.
  r.predictorHitRate =
      cfg.pagePolicy == core::PolicyKind::Perfect
          ? 1.0
          : (specDec == 0 ? 0.0
                          : static_cast<double>(specOk) / static_cast<double>(specDec));
  r.avgQueueOccupancy = queueOccSum / static_cast<double>(sys->mcs.size());
  r.dataBusUtilization = busSum / static_cast<double>(sys->mcs.size());
  r.avgReadLatencyNs = latCount == 0 ? 0.0 : latSum / static_cast<double>(latCount);

  if (sys->cmdLog) {
    // Seal the recording with the live energy accounting so the offline
    // auditor can cross-check its independent recompute (MB-AUD-019/020).
    mc::CmdTraceTrailer trailer;
    trailer.present = true;
    trailer.elapsed = r.elapsed;
    trailer.actPre = e.dramActPre;
    trailer.rdwr = e.dramRdWr;
    trailer.io = e.io;
    trailer.staticEnergy = e.dramStatic;
    trailer.activations = meterActs;
    trailer.casOps = meterCas;
    trailer.refreshes = meterRefs;
    sys->cmdLog->writeTrailer(trailer);
    sys->cmdLog->close();
  }

  r.hierarchy = sys->hier->stats();
  r.mapki = r.instructions == 0
                ? 0.0
                : 1000.0 * static_cast<double>(r.dramReads + r.dramWrites) /
                      static_cast<double>(r.instructions);

  power::ProcessorActivity act;
  act.instructions = r.instructions;
  act.l1Accesses = r.hierarchy.accesses;
  act.l2Accesses = r.hierarchy.accesses - r.hierarchy.l1Hits;
  act.cores = numCores;
  act.l2Slices = sys->hierCfg.numClusters();
  act.elapsed = r.elapsed;
  // §III-B's McPAT reduction (200 pJ/op); no experiment varies it.
  e.processor = power::processorEnergy(power::ProcessorEnergyParams{}, act);

  r.energy = e;
  const double edp = power::energyDelayProduct(e.total(), r.elapsed);
  r.invEdp = edp > 0.0 ? 1.0 / edp : 0.0;
  return r;
}

}  // namespace mb::sim
