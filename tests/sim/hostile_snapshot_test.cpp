// Hostile-snapshot gate (DESIGN.md §12): every MBCKPT1 section decoder is
// handed inflated lengths and out-of-range values, through the real restore
// path, and every outcome must be a structured MB-CKP diagnostic.
//
// Per case, a mid-run full-run snapshot of one tiny configuration is
// mutated at every byte offset of every section: min(8, bytes left) bytes
// become 0xFF, and Snapshot::encode re-seals the file, so the section and
// file CRCs check and only the component decoders stand between the bytes
// and the run. Each mutated file is restored by runSimulation with a
// checkpoint due at tick 0 into a directory that does not exist: a payload
// that loads then stops with MB-CKP-001 at the first window, before any
// event fires. Stopping there keeps the gate about the decoders; what a run
// does after an accepted mutation is a different contract. An exception, an
// abort, a raw MB_CHECK or a hang is a finding, to be fixed in the decoder
// or in the restore, never allow-listed.
//
// The cases together reach every snapshot load in src (the table in §12);
// each asserts that its snapshot holds the in-flight state it exists for,
// so the element decoders run on real bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/serialize.hpp"
#include "ckpt/snapshot.hpp"
#include "common/check.hpp"
#include "core/address_map.hpp"
#include "interface/phy.hpp"
#include "mc/controller.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/generator.hpp"
#include "trace/profiles.hpp"
#include "trace/trace_file.hpp"

namespace mb::sim {
namespace {

/// What a case's snapshot must hold for its decoders to see real elements.
struct InFlight {
  bool queuedRequests = true;   // every MC section has requests queued
  bool readsCompleting = true;  // every MC section has read completions in flight
  bool pendingFills = true;     // the hierarchy waits on DRAM fills
  bool inboxMessages = false;   // the engine buffers CPU -> channel messages
  bool responseHops = false;    // a serial-link response is in flight
};

struct HostileCase {
  const char* name;
  std::function<SystemConfig()> config;
  std::string workload;
  InFlight inFlight;
};

/// Where each case's snapshot is cut, as a fraction of its cold run.
constexpr double kCutAt = 0.9;

/// The sizes every case shrinks to: 1 KiB 2-way L1s, 8 KiB 4-way L2s and
/// 3000 instructions per core keep every section under 16 KiB.
SystemConfig tiny(SystemConfig cfg) {
  cfg.hier.l1Bytes = 1 * kKiB;
  cfg.hier.l1Assoc = 2;
  cfg.hier.l2Bytes = 8 * kKiB;
  cfg.hier.l2Assoc = 4;
  cfg.core.maxInstrs = 3000;
  cfg.specCopies = 2;
  return cfg;
}

/// Eight cores in two clusters on two channels (not applyWorkloadShape's
/// 64 cores, whose snapshot would be ten times larger), with two prefetch
/// streams per core instead of eight.
SystemConfig tinyMultithreaded(SystemConfig cfg) {
  cfg = tiny(cfg);
  cfg.hier.numCores = 8;
  cfg.hier.coresPerCluster = 4;
  cfg.hier.prefetchStreams = 2;
  cfg.channels = 2;
  return cfg;
}

/// A temp file of the running case's own: ctest runs the cases in parallel.
std::string tempPath(const std::string& stem) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "mb_hostile_" + name + "_" + stem;
}

/// Per-core trace files for the trace-replay cases, recorded once per
/// process under the first case's own name: the full-run and warm-up cases
/// that replay them run as parallel ctest processes, and one must not
/// rewrite the files while the other reads them.
std::string tracePrefix() {
  static const std::string prefix = [] {
    const std::string p = tempPath("trace");
    for (int c = 0; c < 2; ++c) {
      trace::SyntheticParams sp = trace::specProfile("470.lbm").params;
      sp.seed = 77 + static_cast<std::uint64_t>(c);
      sp.baseAddr = static_cast<std::uint64_t>(c) << 33;
      trace::SyntheticSource src(sp);
      trace::recordTrace(src, trace::traceFilePath(p, c), 400);
    }
    return p;
  }();
  return prefix;
}

const std::vector<HostileCase>& hostileCases() {
  static const std::vector<HostileCase> cases = {
      // SyntheticSource, RobCore, Cache, the directory, pending fills and
      // prefetcher, loadPending, ActRing, EnergyMeter, the stats types,
      // ParBs, the tournament (and through it the local and global bimodal
      // predictors) and the live TraceAuditor. Every other case has read
      // completions in flight at its cut; this one has none.
      {"SpecTournamentAudited",
       [] {
         SystemConfig cfg = tiny(tsiBaselineConfig());
         cfg.pagePolicy = core::PolicyKind::Tournament;
         cfg.timingCheck = true;
         return cfg;
       },
       "429.mcf", {.readsCompleting = false}},
      // The serial link: response hops in the hierarchy and admissions
      // buffered in the engine's inboxes across the window boundary.
      {"HmcInboxAndHops",
       [] {
         SystemConfig cfg = tiny(tsiBaselineConfig());
         cfg.phy = interface::PhyKind::Hmc;
         cfg.scheduler = mc::SchedulerKind::FrFcfs;
         return cfg;
       },
       "429.mcf", {.inboxMessages = true, .responseHops = true}},
      // μbank (4,4) with per-bank refresh: ChannelState's μbank records and
      // refresh rotation, speculation keys past one μbank per bank.
      {"Ubank44PerBankRefresh",
       [] {
         SystemConfig cfg = tiny(tsiBaselineConfig());
         cfg.phy = interface::PhyKind::Ddr3Tsi;
         cfg.ubank = dram::UbankConfig{4, 4};
         cfg.perBankRefresh = true;
         cfg.pagePolicy = core::PolicyKind::GlobalBimodal;
         cfg.timingCheck = true;
         return cfg;
       },
       "470.lbm", {}},
      // The four multithreaded kernel sources, each on a different policy.
      {"RadixMinimalistOpen",
       [] {
         SystemConfig cfg = tinyMultithreaded(tsiBaselineConfig());
         cfg.pagePolicy = core::PolicyKind::MinimalistOpen;
         return cfg;
       },
       "RADIX", {}},
      {"FftPerfectOracle",
       [] {
         SystemConfig cfg = tinyMultithreaded(tsiBaselineConfig());
         cfg.pagePolicy = core::PolicyKind::Perfect;
         return cfg;
       },
       "FFT", {}},
      {"CannealLocalBimodal",
       [] {
         SystemConfig cfg = tinyMultithreaded(tsiBaselineConfig());
         cfg.pagePolicy = core::PolicyKind::LocalBimodal;
         cfg.scheduler = mc::SchedulerKind::Fcfs;
         return cfg;
       },
       "canneal", {}},
      {"TpchClosePage",
       [] {
         SystemConfig cfg = tinyMultithreaded(tsiBaselineConfig());
         cfg.pagePolicy = core::PolicyKind::Close;
         return cfg;
       },
       "TPC-H", {}},
      // TraceFileSource over recorded MBTRACE1 files.
      {"TraceFileReplay", [] { return tiny(tsiBaselineConfig()); }, "trace", {}},
  };
  return cases;
}

WorkloadSpec workloadOf(const HostileCase& c) {
  if (c.workload == "trace") return WorkloadSpec::traceFiles(tracePrefix());
  const auto w = workloadByName(c.workload);
  EXPECT_TRUE(w.has_value()) << c.workload;
  return w.value_or(WorkloadSpec::spec("429.mcf"));
}

/// A checkpoint path whose directory does not exist: the first window's
/// checkpoint then fails with MB-CKP-001 before any event fires.
std::string unwritablePath() {
  return ::testing::TempDir() + "mb_hostile_no_such_dir/never.mbk";
}

bool writeBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

/// Run the restore `opts` asks for under a check trap: "MB-CKP-0xx" when it
/// ends in a structured snapshot diagnostic, else "finding: " and what
/// happened instead.
std::string outcomeOf(const SystemConfig& cfg, const WorkloadSpec& workload,
                      const RunOptions& opts) {
  ScopedCheckTrap trap;
  try {
    (void)runSimulation(cfg, workload, opts);
    return "finding: the run completed past its tick-0 checkpoint";
  } catch (const CheckFailure& f) {
    if (f.message.rfind("error MB-CKP-", 0) == 0) return f.message.substr(6, 10);
    return "finding: raw check: " + f.message;
  } catch (const std::exception& e) {
    return std::string("finding: exception: ") + e.what();
  } catch (...) {
    return "finding: unknown exception";
  }
}

/// Mutate every byte offset of every section of `snap` and hand each
/// re-sealed result to `restore`. Returns the outcome tally; every finding
/// is also reported as a test failure naming the section and offset.
std::map<std::string, int> mutateEverySection(
    ckpt::Snapshot snap, const std::function<std::string(const std::string&)>& restore) {
  std::map<std::string, int> tally;
  int findings = 0;
  for (auto& sec : snap.sections) {
    for (std::size_t at = 0; at < sec.payload.size(); ++at) {
      const std::size_t n = std::min<std::size_t>(8, sec.payload.size() - at);
      const std::string saved = sec.payload.substr(at, n);
      sec.payload.replace(at, n, n, '\xFF');
      const std::string outcome = restore(snap.encode());
      sec.payload.replace(at, n, saved);
      const bool finding = outcome.rfind("finding: ", 0) == 0;
      ++tally[finding ? "finding" : outcome];
      if (finding && ++findings <= 20)
        ADD_FAILURE() << sec.name << " offset " << at << ": " << outcome;
    }
  }
  return tally;
}

std::string describe(const std::map<std::string, int>& tally) {
  std::string out;
  int total = 0;
  for (const auto& [k, v] : tally) {
    out += " " + k + "=" + std::to_string(v);
    total += v;
  }
  return std::to_string(total) + " mutations:" + out;
}

// ---- In-flight state, read from the section layouts ----------------------

/// Pending fills and response hops in a HIER payload (MemoryHierarchy::save:
/// the L1s and L2s, the directory, the pending fills, the prefetch tables,
/// then the hops).
struct HierInFlight {
  std::uint64_t pendingFills = 0;
  std::uint64_t responseHops = 0;
};

HierInFlight hierInFlight(std::string_view payload) {
  ckpt::Reader r(payload);
  for (int level = 0; level < 2; ++level) {
    for (std::uint64_t c = r.u64(); c > 0 && r.ok(); --c) {
      (void)r.view(r.u64() * 18);
      (void)r.u64();
    }
  }
  (void)r.view(r.u64() * 16);
  HierInFlight out;
  out.pendingFills = r.u64();
  for (std::uint64_t i = 0; i < out.pendingFills && r.ok(); ++i) {
    (void)r.view(8 + 2);
    (void)r.view(r.u64() * 10);
  }
  for (std::uint64_t t = r.u64(); t > 0 && r.ok(); --t) (void)r.view(r.u64() * 29);
  (void)r.u64();
  out.responseHops = r.u64();
  EXPECT_TRUE(r.ok()) << "HIER layout walk overran the payload";
  return out;
}

/// Messages buffered in an ENG payload (ShardedEngine::save: channel count,
/// stamp counters, then each lane's inbox of 61-byte messages).
std::uint64_t inboxMessages(std::string_view payload) {
  ckpt::Reader r(payload);
  const std::uint32_t channels = r.u32();
  (void)r.view(8 * (1 + std::size_t{channels}));
  std::uint64_t total = 0;
  for (std::uint32_t ch = 0; ch < channels && r.ok(); ++ch) {
    const std::uint64_t n = r.u64();
    total += n;
    (void)r.view(n * 61);
  }
  EXPECT_TRUE(r.ok() && r.atEnd()) << "ENG layout walk did not end on the payload";
  return total;
}

/// Channel `ch`'s MC section, read back into a controller built as the run
/// builds it: its queued requests and in-flight read completions.
std::pair<int, std::size_t> controllerInFlight(const SystemConfig& cfg,
                                               const WorkloadSpec& workload, int ch,
                                               std::string_view payload) {
  const int channels = resolvedChannels(cfg, workload);
  const dram::Geometry geom = geometryFor(cfg, channels);
  const core::AddressMap map(geom, resolvedBaseBit(cfg, geom), cfg.xorBankHash);
  mc::ControllerConfig mcCfg;
  mcCfg.queueDepth = cfg.queueDepth;
  mcCfg.scheduler = cfg.scheduler;
  mcCfg.pagePolicy = cfg.pagePolicy;
  mcCfg.enableTimingCheck = cfg.timingCheck;
  mcCfg.refreshEnabled = cfg.refresh;
  mcCfg.perBankRefresh = cfg.perBankRefresh;
  EventQueue eq;
  mc::MemoryController mc(ch, geom, effectiveTiming(cfg),
                          interface::PhyModel::make(cfg.phy).energy, map, mcCfg, eq);
  mc.completionFactory = [](std::uint64_t, CoreId) { return mc::CompletionFn{}; };
  ckpt::Reader r(payload);
  mc.load(r);
  EXPECT_TRUE(r.ok() && r.atEnd()) << "MC" << ch << " did not load back";
  return {mc.outstanding(), mc.liveCompletionCount()};
}

void expectInFlight(const HostileCase& c, const SystemConfig& cfg,
                    const WorkloadSpec& workload, const ckpt::Snapshot& snap) {
  const ckpt::SnapshotSection* hier = snap.section("HIER");
  const ckpt::SnapshotSection* eng = snap.section("ENG");
  ASSERT_NE(hier, nullptr);
  ASSERT_NE(eng, nullptr);
  const HierInFlight h = hierInFlight(hier->payload);
  if (c.inFlight.pendingFills) {
    EXPECT_GT(h.pendingFills, 0u) << "no pending fill at the cut";
  }
  if (c.inFlight.responseHops) {
    EXPECT_GT(h.responseHops, 0u) << "no response hop at the cut";
  }
  if (c.inFlight.inboxMessages) {
    EXPECT_GT(inboxMessages(eng->payload), 0u) << "no inbox message at the cut";
  }
  for (int ch = 0; ch < resolvedChannels(cfg, workload); ++ch) {
    const ckpt::SnapshotSection* sec = snap.section("MC" + std::to_string(ch));
    ASSERT_NE(sec, nullptr);
    const auto [queued, completing] = controllerInFlight(cfg, workload, ch, sec->payload);
    if (c.inFlight.queuedRequests) {
      EXPECT_GT(queued, 0) << "no request queued on channel " << ch << " at the cut";
    }
    if (c.inFlight.readsCompleting) {
      EXPECT_GT(completing, 0u) << "no read completing on channel " << ch << " at the cut";
    }
  }
}

class HostileSnapshot : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HostileSnapshot, EveryMutationEndsInAnMbCkpDiagnostic) {
  const HostileCase& c = hostileCases().at(GetParam());
  const SystemConfig cfg = c.config();
  const WorkloadSpec workload = workloadOf(c);
  const std::clock_t cpu0 = std::clock();

  const RunResult cold = runSimulation(cfg, workload);
  RunOptions save;
  save.checkpointAt = static_cast<Tick>(static_cast<double>(cold.elapsed) * kCutAt);
  save.checkpointPath = tempPath("cut.mbk");
  (void)runSimulation(cfg, workload, save);
  analysis::DiagnosticEngine diags;
  const auto snap = ckpt::readSnapshotFile(save.checkpointPath, diags);
  std::remove(save.checkpointPath.c_str());
  ASSERT_TRUE(snap.has_value()) << diags.renderText();
  expectInFlight(c, cfg, workload, *snap);

  const std::string mutated = tempPath("mutated.mbk");
  RunOptions restore;
  restore.restorePath = mutated;
  restore.checkpointAt = 0;
  restore.checkpointPath = unwritablePath();
  const auto restoreBytes = [&](const std::string& bytes) {
    if (!writeBytes(mutated, bytes)) return std::string("finding: cannot write ") + mutated;
    return outcomeOf(cfg, workload, restore);
  };
  ASSERT_EQ(restoreBytes(snap->encode()), "MB-CKP-001")
      << "the unmutated snapshot must load and stop at the first window";

  const auto tally = mutateEverySection(*snap, restoreBytes);
  std::remove(mutated.c_str());
  std::string sizes;
  for (const auto& sec : snap->sections)
    sizes += " " + sec.name + "=" + std::to_string(sec.payload.size());
  std::printf("[ hostile  ] %s: %s (sections:%s; %.2f s CPU)\n", c.name,
              describe(tally).c_str(), sizes.c_str(),
              static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC);
  EXPECT_EQ(tally.count("finding"), 0u) << describe(tally);
}

INSTANTIATE_TEST_SUITE_P(
    EveryDecoder, HostileSnapshot, ::testing::Range<std::size_t>(0, hostileCases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(hostileCases().at(info.param).name);
    });

// The warm-up path decodes TRACE and HIER from a buffer (warmupRestoreBuf)
// instead of a file: the same mutations, with the same tick-0 stop, once per
// trace source, each on its full-run case's configuration (so the kernels
// warm the eight-core, two-cluster hierarchy).
struct WarmupCase {
  const char* source;
  const char* hostileCase;
};

const std::vector<WarmupCase>& warmupCases() {
  static const std::vector<WarmupCase> cases = {
      {"SyntheticSource", "SpecTournamentAudited"}, {"RadixSource", "RadixMinimalistOpen"},
      {"FftSource", "FftPerfectOracle"},            {"CannealSource", "CannealLocalBimodal"},
      {"TpcSource", "TpchClosePage"},               {"TraceFileSource", "TraceFileReplay"},
  };
  return cases;
}

const HostileCase& hostileCase(std::string_view name) {
  for (const HostileCase& c : hostileCases())
    if (name == c.name) return c;
  ADD_FAILURE() << "no hostile case " << name;
  return hostileCases().front();
}

class HostileWarmup : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HostileWarmup, EveryMutationEndsInAnMbCkpDiagnostic) {
  const WarmupCase& w = warmupCases().at(GetParam());
  const HostileCase& c = hostileCase(w.hostileCase);
  const SystemConfig cfg = c.config();
  const WorkloadSpec workload = workloadOf(c);
  const std::int64_t warmupRecords = 500;
  const std::clock_t cpu0 = std::clock();
  analysis::DiagnosticEngine diags;
  const auto snap =
      ckpt::decodeSnapshot(captureWarmupSnapshot(cfg, workload, warmupRecords), diags);
  ASSERT_TRUE(snap.has_value()) << diags.renderText();

  std::string buf;
  RunOptions restore;
  restore.warmupRecords = warmupRecords;
  restore.warmupRestoreBuf = &buf;
  restore.checkpointAt = 0;
  restore.checkpointPath = unwritablePath();
  const auto restoreBytes = [&](const std::string& bytes) {
    buf = bytes;
    return outcomeOf(cfg, workload, restore);
  };
  ASSERT_EQ(restoreBytes(snap->encode()), "MB-CKP-001");
  const auto tally = mutateEverySection(*snap, restoreBytes);
  std::string sizes;
  for (const auto& sec : snap->sections)
    sizes += " " + sec.name + "=" + std::to_string(sec.payload.size());
  std::printf("[ hostile  ] warm-up %s: %s (sections:%s; %.2f s CPU)\n", w.source,
              describe(tally).c_str(), sizes.c_str(),
              static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC);
  EXPECT_EQ(tally.count("finding"), 0u) << describe(tally);
}

INSTANTIATE_TEST_SUITE_P(
    EveryTraceSource, HostileWarmup, ::testing::Range<std::size_t>(0, warmupCases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(warmupCases().at(info.param).source);
    });

}  // namespace
}  // namespace mb::sim
