// Checkpoint/restore correctness: a restored run must be BIT-identical to
// the cold run that produced the snapshot — same instruction counts, same
// tick-resolution elapsed time, same energy down to the last double bit —
// for every shipped preset. Also covers the semantic rejection codes the
// restore orchestrator owns (MB-CKP-004/005/009/010/012) and the
// warmup-snapshot reuse path the sweep engine builds on.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/serialize.hpp"
#include "ckpt/snapshot.hpp"
#include "common/check.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/system.hpp"

namespace mb::sim {
namespace {

/// Bitwise double equality: NaN-safe, distinguishes -0.0 from +0.0. Restore
/// equivalence is exact replay, so approximate comparison would hide bugs.
::testing::AssertionResult bitEq(const char* aExpr, const char* bExpr, double a,
                                 double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << aExpr << " and " << bExpr << " differ bitwise: " << a << " vs " << b;
}
#define EXPECT_BITEQ(a, b) EXPECT_PRED_FORMAT2(bitEq, a, b)

void expectBitIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_BITEQ(a.systemIpc, b.systemIpc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_BITEQ(a.energy.processor, b.energy.processor);
  EXPECT_BITEQ(a.energy.dramActPre, b.energy.dramActPre);
  EXPECT_BITEQ(a.energy.dramStatic, b.energy.dramStatic);
  EXPECT_BITEQ(a.energy.dramRdWr, b.energy.dramRdWr);
  EXPECT_BITEQ(a.energy.io, b.energy.io);
  EXPECT_BITEQ(a.invEdp, b.invEdp);
  EXPECT_BITEQ(a.rowHitRate, b.rowHitRate);
  EXPECT_BITEQ(a.predictorHitRate, b.predictorHitRate);
  EXPECT_BITEQ(a.avgQueueOccupancy, b.avgQueueOccupancy);
  EXPECT_BITEQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
  EXPECT_BITEQ(a.dataBusUtilization, b.dataBusUtilization);
  EXPECT_EQ(a.dramReads, b.dramReads);
  EXPECT_EQ(a.dramWrites, b.dramWrites);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_BITEQ(a.mapki, b.mapki);
  EXPECT_EQ(a.hierarchy.accesses, b.hierarchy.accesses);
  EXPECT_EQ(a.hierarchy.l1Hits, b.hierarchy.l1Hits);
  EXPECT_EQ(a.hierarchy.l2Hits, b.hierarchy.l2Hits);
  EXPECT_EQ(a.hierarchy.dramReads, b.hierarchy.dramReads);
  EXPECT_EQ(a.hierarchy.dramWrites, b.hierarchy.dramWrites);
  EXPECT_EQ(a.hierarchy.c2cTransfers, b.hierarchy.c2cTransfers);
  EXPECT_EQ(a.hierarchy.invalidations, b.hierarchy.invalidations);
  EXPECT_EQ(a.hierarchy.upgrades, b.hierarchy.upgrades);
  EXPECT_EQ(a.hierarchy.prefetchIssued, b.hierarchy.prefetchIssued);
  EXPECT_EQ(a.hierarchy.prefetchUseful, b.hierarchy.prefetchUseful);
  ASSERT_EQ(a.coreIpc.size(), b.coreIpc.size());
  for (std::size_t i = 0; i < a.coreIpc.size(); ++i)
    EXPECT_BITEQ(a.coreIpc[i], b.coreIpc[i]);
}

SystemConfig presetFast(const NamedConfig& preset) {
  SystemConfig cfg = preset.cfg;
  cfg.core.maxInstrs = 15000;
  return cfg;
}

// Satellite: two back-to-back runs of the same configuration must agree
// bitwise — the simulator is deterministic for every shipped preset, which
// is the property checkpoint/restore and sweep resume both stand on.
TEST(Determinism, BackToBackRunsBitIdentical) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  for (const auto& preset : shippedPresets()) {
    SCOPED_TRACE(preset.name);
    const SystemConfig cfg = presetFast(preset);
    const RunResult a = runSimulation(cfg, workload);
    const RunResult b = runSimulation(cfg, workload);
    expectBitIdentical(a, b);
  }
}

// Tentpole acceptance: for every shipped preset, (1) a run that writes a
// mid-flight checkpoint is unperturbed by doing so, and (2) a run restored
// from that checkpoint finishes bit-identical to the cold run.
TEST(Checkpoint, RestoreEquivalentForEveryPreset) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  for (const auto& preset : shippedPresets()) {
    SCOPED_TRACE(preset.name);
    const SystemConfig cfg = presetFast(preset);
    const RunResult cold = runSimulation(cfg, workload);
    ASSERT_GT(cold.elapsed, 0);

    const std::string path = ::testing::TempDir() + "mb_ckpt_" + preset.name + ".mbk";
    RunOptions save;
    save.checkpointAt = cold.elapsed / 2;
    save.checkpointPath = path;
    const RunResult saver = runSimulation(cfg, workload, save);
    expectBitIdentical(cold, saver);  // checkpointing must not perturb the run

    RunOptions load;
    load.restorePath = path;
    const RunResult restored = runSimulation(cfg, workload, load);
    expectBitIdentical(cold, restored);
    std::remove(path.c_str());
  }
}

std::string readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Per shipped preset, on four channels, warm, with a small L2 so dirty
// evictions keep write drains going, and with the engine switching shard
// count across the restore: a run restored from a snapshot at one third of
// the run writes, at two thirds, the same bytes the cold run writes there.
// The restored state must equal the cold state, not only reach the same
// report by the end of the run.
class PresetRestore : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PresetRestore, RestoredRunWritesTheColdRunsLaterSnapshot) {
  const NamedConfig& preset = shippedPresets().at(GetParam());
  const auto workload = WorkloadSpec::spec("429.mcf");
  SystemConfig cfg = presetFast(preset);
  cfg.channels = 4;
  cfg.hier.l2Bytes = 64 * 1024;
  ASSERT_EQ(resolvedChannels(cfg, workload), 4);
  const std::int64_t warmupRecords = 2000;
  const std::string warm = captureWarmupSnapshot(cfg, workload, warmupRecords);
  const auto warmStart = [&](int shards) {
    RunOptions o;
    o.shards = shards;
    o.warmupRecords = warmupRecords;
    o.warmupRestoreBuf = &warm;
    return o;
  };
  const RunResult cold = runSimulation(cfg, workload, warmStart(1));
  ASSERT_GT(cold.dramWrites, 0) << "no write drains to cut through";
  const std::string coldJson = runResultToJson(cold);
  const Tick early = cold.elapsed / 3 + 7;
  const Tick late = cold.elapsed * 2 / 3 + 7;
  const std::string tmp = ::testing::TempDir() + "mb_ckpt_later_" + preset.name;

  RunOptions coldLate = warmStart(1);
  coldLate.checkpointAt = late;
  coldLate.checkpointPath = tmp + "_cold.mbk";
  EXPECT_EQ(runResultToJson(runSimulation(cfg, workload, coldLate)), coldJson);
  RunOptions shardedEarly = warmStart(4);
  shardedEarly.checkpointAt = early;
  shardedEarly.checkpointPath = tmp + "_early.mbk";
  EXPECT_EQ(runResultToJson(runSimulation(cfg, workload, shardedEarly)), coldJson);

  RunOptions resumed;
  resumed.shards = 2;
  resumed.restorePath = shardedEarly.checkpointPath;
  resumed.checkpointAt = late;
  resumed.checkpointPath = tmp + "_resumed.mbk";
  EXPECT_EQ(runResultToJson(runSimulation(cfg, workload, resumed)), coldJson);
  const std::string coldBytes = readFileBytes(coldLate.checkpointPath);
  ASSERT_FALSE(coldBytes.empty());
  EXPECT_TRUE(coldBytes == readFileBytes(resumed.checkpointPath))
      << "the restored run's snapshot at " << late << " ps differs from the cold run's";
  for (const RunOptions* o : {&coldLate, &shardedEarly, &resumed})
    std::remove(o->checkpointPath.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    EveryShippedPreset, PresetRestore, ::testing::Range<std::size_t>(0, shippedPresets().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      // "tsi-ubank(4,4)-scaled-act-window" -> "tsi_ubank_4_4_scaled_act_window"
      std::string name;
      for (const char c : shippedPresets().at(info.param).name) {
        if (std::isalnum(static_cast<unsigned char>(c)) != 0) name += c;
        else if (c != ')') name += '_';
      }
      return name;
    });

// The full-run MBCKPT1 layout, pinned section by section (FNV-1a64 of each
// payload) for two snapshots: tsi-baseline 429.mcf cut at 20 us, one
// channel; and a warm mix-high point on 16 channels, written at two shards
// and cut at 5 us. A change to what a component saves, or to the order it
// saves it in, fails here even when its load() mirrors the change and every
// restore still matches its cold run. The hashes were taken at
// kSnapshotVersion kPinnedSnapshotVersion: a deliberate layout change bumps
// kSnapshotVersion and re-pins both in the same change.
constexpr std::uint32_t kPinnedSnapshotVersion = 2;

struct SectionPin {
  const char* name;
  std::uint64_t fnv;
};

void expectSectionsPinned(const SystemConfig& cfg, const WorkloadSpec& workload,
                          RunOptions opts, const std::vector<SectionPin>& pins) {
  opts.checkpointPath = ::testing::TempDir() + "mb_ckpt_pinned.mbk";
  (void)runSimulation(cfg, workload, opts);
  analysis::DiagnosticEngine diags;
  const auto snap = ckpt::readSnapshotFile(opts.checkpointPath, diags);
  std::remove(opts.checkpointPath.c_str());
  ASSERT_TRUE(snap.has_value()) << diags.renderText();
  ASSERT_EQ(snap->sections.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(snap->sections[i].name, pins[i].name);
    EXPECT_EQ(ckpt::fnv1a64(snap->sections[i].payload), pins[i].fnv)
        << "section " << pins[i].name
        << " changed: bump kSnapshotVersion if the layout changed, then re-pin";
  }
}

TEST(Checkpoint, FullRunSectionBytesArePinned) {
  ASSERT_EQ(ckpt::kSnapshotVersion, kPinnedSnapshotVersion)
      << "kSnapshotVersion was bumped: re-pin the section hashes below and "
         "record the version they were taken at";

  SystemConfig single = tsiBaselineConfig();
  single.core.maxInstrs = 10000;
  RunOptions cut20us;
  cut20us.checkpointAt = 20'000'000;
  expectSectionsPinned(single, WorkloadSpec::spec("429.mcf"), cut20us,
                       {{"TRACE", 0x5407bfdef2150730ull},
                        {"CORES", 0x18d579c2905500aaull},
                        {"HIER", 0xfcf89dfb321749b6ull},
                        {"MC0", 0x2f8a6fd56bc20379ull},
                        {"ENG", 0x9708c4ead33e5d4aull}});

  const auto mix = WorkloadSpec::mix("mix-high");
  SystemConfig wide = tsiBaselineConfig();
  applyWorkloadShape(wide, mix);
  wide.core.maxInstrs = 2000;
  RunOptions warmCut5us;
  warmCut5us.warmupRecords = 1000;
  warmCut5us.shards = 2;
  warmCut5us.checkpointAt = 5'000'000;
  expectSectionsPinned(wide, mix, warmCut5us,
                       {{"TRACE", 0x0457d6ccc15472c6ull},
                        {"CORES", 0xca711b5a995b1f5cull},
                        {"HIER", 0x7ed6a484a7f7dfc7ull},
                        {"MC0", 0xf8337ad706236f30ull},
                        {"MC1", 0x14cd3d30ab4caa16ull},
                        {"MC2", 0xc79a0c8c87a5ff61ull},
                        {"MC3", 0xf663806b75f6d119ull},
                        {"MC4", 0x61f9f66e6386cefdull},
                        {"MC5", 0x17f9b7d9ac9f9a2dull},
                        {"MC6", 0xa3bf75cd7cad85fcull},
                        {"MC7", 0x814af6776e8f16a0ull},
                        {"MC8", 0x8fa315431b506b8aull},
                        {"MC9", 0x32bf0c864b38084aull},
                        {"MC10", 0x8cbae36d3eff9805ull},
                        {"MC11", 0x16d616bd2ba7e1dcull},
                        {"MC12", 0x99e15999a5f7b10eull},
                        {"MC13", 0x8e841d5885e58a10ull},
                        {"MC14", 0xef42c5fb4b3b82e2ull},
                        {"MC15", 0x1eff6044b1932dbbull},
                        {"ENG", 0x4064abd5ed90cc4dull}});
}

TEST(Checkpoint, PastEndCheckpointRestoresFinalState) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const RunResult cold = runSimulation(cfg, workload);

  const std::string path = ::testing::TempDir() + "mb_ckpt_final.mbk";
  RunOptions save;
  save.checkpointAt = cold.elapsed * 10;  // never reached mid-run
  save.checkpointPath = path;
  const RunResult saver = runSimulation(cfg, workload, save);
  expectBitIdentical(cold, saver);

  // The post-loop flush captured the final state; restoring it resumes into
  // immediate completion with the same report.
  RunOptions load;
  load.restorePath = path;
  const RunResult restored = runSimulation(cfg, workload, load);
  expectBitIdentical(cold, restored);
  std::remove(path.c_str());
}

/// Run a restore under a check trap and return the failure text. With
/// `firstWindowOnly`, a checkpoint due at tick 0 into a directory that does
/// not exist ends the restore at its first window, before any event fires:
/// MB-CKP-001 when every section loads.
std::string restoreFailure(const SystemConfig& cfg, const WorkloadSpec& workload,
                           const std::string& path, bool firstWindowOnly = false,
                           int shards = 1) {
  ScopedCheckTrap trap;
  try {
    RunOptions load;
    load.restorePath = path;
    load.shards = shards;
    if (firstWindowOnly) {
      load.checkpointAt = 0;
      load.checkpointPath = ::testing::TempDir() + "mb_ckpt_no_such_dir/never.mbk";
    }
    (void)runSimulation(cfg, workload, load);
  } catch (const CheckFailure& f) {
    return f.message;
  }
  return "";
}

/// How many `key: value` context lines a rendered diagnostic carries for
/// `key`. Each context key must be unique: Diagnostic::json() writes them as
/// one JSON object, which json_mini's strict mode rejects on a duplicate.
std::size_t contextLines(const std::string& text, const std::string& key) {
  const std::string needle = "\n  " + key + ": ";
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1))
    ++n;
  return n;
}

/// Write a full-run checkpoint of (cfg, workload) at half distance.
std::string writeCheckpoint(const SystemConfig& cfg, const WorkloadSpec& workload,
                            const std::string& path) {
  const RunResult cold = runSimulation(cfg, workload);
  RunOptions save;
  save.checkpointAt = cold.elapsed / 2;
  save.checkpointPath = path;
  (void)runSimulation(cfg, workload, save);
  return path;
}

TEST(Checkpoint, RejectsConfigMismatch) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const std::string path = ::testing::TempDir() + "mb_ckpt_cfgmis.mbk";
  writeCheckpoint(cfg, workload, path);

  SystemConfig other = cfg;
  other.seed += 1;  // any config delta changes the hash
  const std::string msg = restoreFailure(other, workload, path);
  EXPECT_NE(msg.find("MB-CKP-004"), std::string::npos) << msg;
  // The file label and the two hashes each have their own key.
  EXPECT_EQ(contextLines(msg, "snapshot"), 1u) << msg;
  EXPECT_EQ(contextLines(msg, "snapshotConfigHash"), 1u) << msg;
  EXPECT_EQ(contextLines(msg, "expectedConfigHash"), 1u) << msg;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsWarmupSnapshotAsFullRun) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const std::string path = ::testing::TempDir() + "mb_ckpt_kind.mbk";
  const std::string buf = captureWarmupSnapshot(cfg, workload, 500);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);

  const std::string msg = restoreFailure(cfg, workload, path);
  EXPECT_NE(msg.find("MB-CKP-005"), std::string::npos) << msg;
  std::remove(path.c_str());
}

/// Decode `path`, let `mutate` edit the snapshot, re-encode in place. The
/// container CRCs are recomputed by encode(), so only the SEMANTIC checks
/// can reject the result — exactly the codes under test here.
void tamperSnapshot(const std::string& path,
                    const std::function<void(ckpt::Snapshot&)>& mutate) {
  analysis::DiagnosticEngine diags;
  auto snap = ckpt::readSnapshotFile(path, diags);
  ASSERT_TRUE(snap.has_value()) << diags.renderText();
  mutate(*snap);
  ASSERT_TRUE(ckpt::writeSnapshotFile(*snap, path, diags)) << diags.renderText();
}

TEST(Checkpoint, RejectsGeometryMismatch) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const std::string path = ::testing::TempDir() + "mb_ckpt_geom.mbk";
  writeCheckpoint(cfg, workload, path);
  tamperSnapshot(path, [](ckpt::Snapshot& s) { s.geometry.nW += 1; });

  const std::string msg = restoreFailure(cfg, workload, path);
  EXPECT_NE(msg.find("MB-CKP-009"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMissingSection) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const std::string path = ::testing::TempDir() + "mb_ckpt_missing.mbk";
  writeCheckpoint(cfg, workload, path);
  tamperSnapshot(path, [](ckpt::Snapshot& s) {
    for (std::size_t i = 0; i < s.sections.size(); ++i) {
      if (s.sections[i].name == "HIER") {
        s.sections.erase(s.sections.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    FAIL() << "checkpoint had no HIER section";
  });

  const std::string msg = restoreFailure(cfg, workload, path);
  EXPECT_NE(msg.find("MB-CKP-010"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMalformedSectionPayload) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const std::string path = ::testing::TempDir() + "mb_ckpt_payload.mbk";
  writeCheckpoint(cfg, workload, path);
  tamperSnapshot(path, [](ckpt::Snapshot& s) {
    for (auto& sec : s.sections) {
      if (sec.name == "HIER") {
        sec.payload = "not a hierarchy payload";  // container CRCs recomputed
        return;
      }
    }
    FAIL() << "checkpoint had no HIER section";
  });

  const std::string msg = restoreFailure(cfg, workload, path);
  EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
  std::remove(path.c_str());
}

/// Checkpoint (cfg, workload) at half distance into a file named after the
/// running test (ctest runs the tests as parallel processes), let `edit`
/// rewrite section `name`'s payload (CRCs recomputed), and return the
/// failure of restoring it up to its first window.
std::string sectionTamperFailure(const SystemConfig& cfg, const WorkloadSpec& workload,
                                 const std::string& name,
                                 const std::function<void(std::string&)>& edit) {
  const std::string path = ::testing::TempDir() + "mb_ckpt_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".mbk";
  writeCheckpoint(cfg, workload, path);
  tamperSnapshot(path, [&](ckpt::Snapshot& s) {
    for (auto& sec : s.sections)
      if (sec.name == name) return edit(sec.payload);
    FAIL() << "checkpoint had no " << name << " section";
  });
  const std::string msg = restoreFailure(cfg, workload, path, /*firstWindowOnly=*/true);
  std::remove(path.c_str());
  return msg;
}

/// The same, for the 429.mcf tsi-baseline run of presetFast: four cores on
/// one channel, ParBs, open page, no auditor.
std::string sectionTamperFailure(const std::string& name,
                                 const std::function<void(std::string&)>& edit) {
  return sectionTamperFailure(presetFast(shippedPresets().front()),
                              WorkloadSpec::spec("429.mcf"), name, edit);
}

/// `v` as the little-endian bytes a snapshot holds.
std::string le(std::int64_t v) {
  ckpt::Writer w;
  w.i64(v);
  return w.take();
}

std::string le32(std::int32_t v) {
  ckpt::Writer w;
  w.i32(v);
  return w.take();
}

/// Offset of a HIER payload's coherence directory: the payload opens with
/// the L1 and then the L2 caches (a u64 cache count, then per cache a u64
/// line count, 18 bytes per line and a u64 LRU clock). The directory is a
/// u64 count of 16-byte records (i64 line, u32 sharers, i32 owner); the
/// pending fills follow it, a u64 count of records (i64 key, two flags, a
/// u64 waiter count and 10-byte waiters: i32 core, flag, i32 tag, flag).
std::size_t directoryAt(std::string_view payload) {
  ckpt::Reader r(payload);
  for (int level = 0; level < 2; ++level) {
    const std::uint64_t caches = r.u64();
    for (std::uint64_t c = 0; c < caches; ++c) {
      (void)r.view(r.u64() * 18);
      (void)r.u64();
    }
  }
  EXPECT_TRUE(r.ok());
  return payload.size() - r.remaining();
}

std::size_t pendingFillsAt(std::string_view payload) {
  const std::size_t dir = directoryAt(payload);
  return dir + 8 + 16 * ckpt::Reader(payload.substr(dir)).u64();
}

/// Offsets in the MC section of presetFast's controller (four ranks of
/// eight μbanks, ParBs, open page, no auditor) of its element lists, each a
/// u64 count of records: PAR-BS's marks (12 bytes: i64 id, i32 thread, by
/// id), its per-thread marked counts (12 bytes: i64 thread, i32 count, by
/// thread) and its view of the read window (20 bytes: u64 id, i32 thread,
/// i64 arrival), the read queue and the write queue (36-byte requests: u64
/// id, u64 line, write flag, i32 core, i32 thread, i64 arrival, three
/// flags), the wake-up events (i64 tick, 40-byte stamp) and the read
/// completions in flight (108 bytes: u64 token, two 40-byte stamps, i64
/// due, u64 line, i32 core).
struct McLists {
  std::size_t marks = 0;
  std::size_t markCounts = 0;
  std::size_t view = 0;
  std::size_t readQueue = 0;
  std::size_t writeQueue = 0;
  std::size_t kicks = 0;
  std::size_t completions = 0;
};

McLists mcLists(std::string_view payload) {
  ckpt::Reader r(payload);
  const auto skipList = [&](std::size_t bytes) { (void)r.view(r.u64() * bytes); };
  for (std::uint64_t rank = r.u64(); rank > 0 && r.ok(); --rank) {
    (void)r.view(4 + 8 * 49 + 8);  // refresh pointer, μbanks, last ACT
    skipList(8);                   // the tFAW window
    (void)r.view(3 * 8);
  }
  (void)r.view(38 + 56);  // channel scalars, energy meter
  McLists out;
  out.marks = payload.size() - r.remaining();
  skipList(12);
  out.markCounts = payload.size() - r.remaining();
  skipList(12);
  out.view = payload.size() - r.remaining();
  skipList(20);
  EXPECT_EQ(r.u8(), 0u) << "presetFast runs without an auditor";
  out.readQueue = payload.size() - r.remaining();
  skipList(36);  // the read window
  skipList(36);  // the overflow FIFO
  out.writeQueue = payload.size() - r.remaining();
  skipList(36);
  (void)r.u8();   // draining writes
  skipList(40);   // pending closes
  skipList(21);   // speculations
  (void)r.view(16);
  out.kicks = payload.size() - r.remaining();
  skipList(48);
  (void)r.view(16);
  out.completions = payload.size() - r.remaining();
  skipList(108);
  EXPECT_TRUE(r.ok() && r.remaining() == 136) << "MC layout walk lost its place";
  return out;
}

/// Prepend `record` to the counted list at `at`.
void prependRecord(std::string& payload, std::size_t at, const std::string& record) {
  const std::uint64_t n = ckpt::Reader(std::string_view(payload).substr(at)).u64();
  ckpt::Writer count;
  count.u64(n + 1);
  payload.replace(at, 8, count.str() + record);
}

/// One coherence-directory record of a HIER payload.
struct DirRecord {
  std::uint64_t line;
  std::uint32_t sharers;
  std::int32_t owner;
};

/// Decode the coherence directory out of a HIER payload, let `edit` change
/// its records, and write them back in place.
void editDirectory(std::string& payload,
                   const std::function<void(std::vector<DirRecord>&)>& edit) {
  const std::size_t dirAt = directoryAt(payload);
  ckpt::Reader r(std::string_view(payload).substr(dirAt));
  std::vector<DirRecord> dir(r.u64());
  for (auto& d : dir) {
    d.line = r.u64();
    d.sharers = r.u32();
    d.owner = r.i32();
  }
  ASSERT_TRUE(r.ok());
  ASSERT_GE(dir.size(), 2u);
  const std::size_t dirEnd = payload.size() - r.remaining();
  edit(dir);
  ckpt::Writer w;
  w.u64(dir.size());
  for (const auto& d : dir) {
    w.u64(d.line);
    w.u32(d.sharers);
    w.i32(d.owner);
  }
  payload = payload.substr(0, dirAt) + w.str() + payload.substr(dirEnd);
}

/// Restore a 429.mcf checkpoint whose directory `edit` rewrote and return
/// the failure text.
std::string directoryTamperFailure(
    const std::function<void(std::vector<DirRecord>&)>& edit) {
  return sectionTamperFailure("HIER", [&](std::string& p) { editDirectory(p, edit); });
}

// save() writes the directory in ascending key order, so a repeated key is
// tampering. The hash table kept the first copy and restored silently; the
// flat table must not take two slots for one line.
TEST(Checkpoint, RejectsARepeatedDirectoryKey) {
  const std::string msg = directoryTamperFailure([](std::vector<DirRecord>& dir) {
    dir.insert(dir.begin() + 1, dir.front());
  });
  EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
}

// A directory key is a line address. One that is not line-aligned names no
// line a cache can hold, and could collide with the table's empty marker.
TEST(Checkpoint, RejectsAnUnalignedDirectoryKey) {
  const std::string msg = directoryTamperFailure([](std::vector<DirRecord>& dir) {
    dir.front().line += 1;  // still below the next key, so still ascending
  });
  EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
}

// The directory holds at most one entry per L2 line (a single-app run has
// one L2) plus one in flight. More entries than that, each well-formed, must
// be rejected before they reach the flat table.
TEST(Checkpoint, RejectsADirectoryPastItsBound) {
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const auto bound = static_cast<std::size_t>(cfg.hier.l2Bytes / kCacheLineBytes) + 1;
  const std::string msg = directoryTamperFailure([bound](std::vector<DirRecord>& dir) {
    while (dir.size() <= bound) dir.push_back({dir.back().line + 64, 1, -1});
  });
  EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
}

// Each component re-arms its pending events under its own section's trap:
// one armed before the capture time is that section's MB-CKP-012, not a
// bare "scheduling into the past" check failure.
TEST(Checkpoint, RejectsACoreStepDueBeforeTheCapture) {
  const std::string msg = sectionTamperFailure("CORES", [](std::string& p) {
    // Core 0 is a u64 ROB size, 9 bytes per slot and 139 bytes of scalars
    // that end in the step flag, its tick, its 40-byte stamp and the budget
    // tick. Arm a step at 1 ps.
    const std::size_t end = 8 + 9 * ckpt::Reader(p).u64() + 139;
    p[end - 57] = 1;
    p.replace(end - 56, 8, le(1));
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'CORES'"),
            std::string::npos)
      << msg;
}

TEST(Checkpoint, RejectsAControllerWakeUpDueBeforeTheCapture) {
  const std::string msg = sectionTamperFailure("MC0", [](std::string& p) {
    prependRecord(p, mcLists(p).kicks, le(1) + std::string(40, '\0'));
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'MC0'"),
            std::string::npos)
      << msg;
}

// A waiter and a queued read each name the core their data goes to; a
// core the run does not have is tampering, rejected where it is decoded.
TEST(Checkpoint, RejectsAWaiterForACoreNotInTheRun) {
  const std::string msg = sectionTamperFailure("HIER", [](std::string& p) {
    const std::string waiter = le32(4) + '\0' + le32(0) + '\1';  // core 4 of 0..3
    prependRecord(p, pendingFillsAt(p), le(0) + std::string(2, '\0') + le(1) + waiter);
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'HIER'"),
            std::string::npos)
      << msg;
}

TEST(Checkpoint, RejectsAQueuedReadForACoreNotInTheRun) {
  const std::string msg = sectionTamperFailure("MC0", [](std::string& p) {
    // id, line, read, core -256, thread, arrival, two flags, a callback.
    const std::string read =
        le(0) + le(0) + '\0' + le32(-256) + le32(0) + le(0) + std::string(2, '\0') + '\1';
    prependRecord(p, mcLists(p).readQueue, read);
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'MC0'"),
            std::string::npos)
      << msg;
}

// Every read in flight was issued for a pending fill, which its data lands
// in; a read of a line no fill waits for would fail an MB_CHECK when its
// data arrived, mid-run and without the section's name.
TEST(Checkpoint, RejectsAQueuedReadWhoseFillIsNotPending) {
  const std::string msg = sectionTamperFailure("MC0", [](std::string& p) {
    // A read of a line far past the workload's, for core 0, with a callback.
    const std::string read = le(0) + le(std::int64_t{1} << 50) + '\0' + le32(0) + le32(0) +
                             le(0) + std::string(2, '\0') + '\1';
    prependRecord(p, mcLists(p).readQueue, read);
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'MC0'"),
            std::string::npos)
      << msg;
}

TEST(Checkpoint, RejectsACompletionWhoseFillIsNotPending) {
  const std::string msg = sectionTamperFailure("MC0", [](std::string& p) {
    const std::size_t at = mcLists(p).completions;
    ASSERT_GT(ckpt::Reader(std::string_view(p).substr(at)).u64(), 0u)
        << "no read completion in flight at the cut";
    p.replace(at + 8 + 96, 8, le(std::int64_t{1} << 50));  // the first one's line
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'MC0'"),
            std::string::npos)
      << msg;
}

// A serviced request leaves the queue its kind names, so a read restored
// into the write queue would be found in neither when its CAS issues.
TEST(Checkpoint, RejectsAReadInTheWriteQueue) {
  const std::string msg = sectionTamperFailure("MC0", [](std::string& p) {
    // id, line, read, core 0, thread 0, arrival, two flags, no callback.
    const std::string read =
        le(0) + le(0) + '\0' + le32(0) + le32(0) + le(0) + std::string(2, '\0') + '\0';
    prependRecord(p, mcLists(p).writeQueue, read);
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'MC0'"),
            std::string::npos)
      << msg;
}

/// The record count of the MC list at `at`, asserted non-zero.
std::uint64_t listCount(const std::string& payload, std::size_t at, const char* what) {
  const std::uint64_t n = ckpt::Reader(std::string_view(payload).substr(at)).u64();
  EXPECT_GT(n, 0u) << "no " << what << " at the cut";
  return n;
}

// PAR-BS reads a request's mark and rank by its read-window position, so its
// view must be the restored read window: the same requests, in order.
TEST(Checkpoint, RejectsAParBsViewThatIsNotTheReadWindow) {
  const std::string msg = sectionTamperFailure("MC0", [](std::string& p) {
    const std::size_t at = mcLists(p).view;
    if (listCount(p, at, "PAR-BS view entry") == 0) return;
    const std::int64_t arrival = ckpt::Reader(std::string_view(p).substr(at + 8 + 12)).i64();
    p.replace(at + 8 + 12, 8, le(arrival + 1));  // the first entry's arrival
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'MC0'"),
            std::string::npos)
      << msg;
}

// A mark for a request that is not queued never drains, so no batch would
// form again.
TEST(Checkpoint, RejectsAParBsMarkForARequestNotQueued) {
  const std::string msg = sectionTamperFailure("MC0", [](std::string& p) {
    const std::size_t at = mcLists(p).marks;
    const std::uint64_t n = listCount(p, at, "PAR-BS mark");
    if (n == 0) return;
    const std::size_t last = at + 8 + 12 * (n - 1);
    const std::int64_t id = ckpt::Reader(std::string_view(p).substr(last)).i64();
    p.replace(last, 8, le(id + 1000000));  // still the largest id
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'MC0'"),
            std::string::npos)
      << msg;
}

// A thread's rank is its count of marks; a count that disagrees with them
// would rank the thread wrongly until the batch drains.
TEST(Checkpoint, RejectsAParBsCountThatDisagreesWithItsMarks) {
  const std::string msg = sectionTamperFailure("MC0", [](std::string& p) {
    const std::size_t at = mcLists(p).markCounts;
    if (listCount(p, at, "PAR-BS marked count") == 0) return;
    const std::int32_t n = ckpt::Reader(std::string_view(p).substr(at + 8 + 8)).i32();
    p.replace(at + 8 + 8, 4, le32(n - 1));  // the first thread's count
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'MC0'"),
            std::string::npos)
      << msg;
}

// A buffered admission is due at or after the window boundary the
// snapshot was cut at; one due before the capture time is tampering.
TEST(Checkpoint, RejectsAnAdmissionDueBeforeTheCapture) {
  const std::string msg = sectionTamperFailure("ENG", [](std::string& p) {
    // u32 channel count, the CPU and channel stamp counters, then per
    // channel a u64 count of 61-byte messages (i64 due, 40-byte stamp,
    // u64 line, i32 core, write flag).
    prependRecord(p, 4 + 8 * 2, le(1) + std::string(40, '\0') + le(0) + le32(0) + '\0');
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'ENG'"),
            std::string::npos)
      << msg;
}

/// The buffered admissions of an ENG payload (ShardedEngine::save): the
/// channel count and stamp counters, then per channel its 61-byte messages
/// (i64 due, 40-byte stamp, u64 line, i32 core, write flag).
struct EngInboxes {
  std::string head;
  std::vector<std::vector<std::string>> lanes;
};
constexpr std::size_t kAdmissionLineAt = 48;
constexpr std::size_t kAdmissionCoreAt = 56;
constexpr std::size_t kAdmissionWriteAt = 60;

EngInboxes engInboxes(std::string_view payload) {
  ckpt::Reader r(payload);
  EngInboxes out;
  out.lanes.resize(r.u32());
  out.head = std::string(r.view(8 * (1 + out.lanes.size())));
  for (auto& lane : out.lanes) {
    for (std::uint64_t n = r.u64(); n > 0 && r.ok(); --n) lane.emplace_back(r.view(61));
  }
  EXPECT_TRUE(r.ok() && r.atEnd()) << "ENG layout walk did not end on the payload";
  return out;
}

std::string encode(const EngInboxes& e) {
  ckpt::Writer w;
  w.u32(static_cast<std::uint32_t>(e.lanes.size()));
  std::string out = w.take() + e.head;
  for (const auto& lane : e.lanes) {
    ckpt::Writer n;
    n.u64(lane.size());
    out += n.take();
    for (const auto& m : lane) out += m;
  }
  return out;
}

/// The first buffered read admission, or nullptr.
std::string* firstReadAdmission(EngInboxes& e) {
  for (auto& lane : e.lanes)
    for (auto& m : lane)
      if (m[kAdmissionWriteAt] == 0) return &m;
  return nullptr;
}

/// Checkpoint 429.mcf on ddr3-pcb over `channels` at `cut`, where the
/// engine buffers admissions, let `edit` rewrite them and return the
/// restore's failure.
std::string admissionTamperFailure(int channels, Tick cut,
                                   const std::function<void(EngInboxes&)>& edit) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  SystemConfig cfg = ddr3PcbConfig();
  cfg.core.maxInstrs = 10000;
  cfg.channels = channels;
  const std::string path = ::testing::TempDir() + "mb_ckpt_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".mbk";
  RunOptions save;
  save.checkpointAt = cut;
  save.checkpointPath = path;
  (void)runSimulation(cfg, workload, save);
  tamperSnapshot(path, [&](ckpt::Snapshot& s) {
    for (auto& sec : s.sections) {
      if (sec.name != "ENG") continue;
      EngInboxes e = engInboxes(sec.payload);
      edit(e);
      sec.payload = encode(e);
      return;
    }
    FAIL() << "checkpoint had no ENG section";
  });
  const std::string msg = restoreFailure(cfg, workload, path);
  std::remove(path.c_str());
  return msg;
}

// An admission becomes a request on its lane's controller; its core must be
// one of the run's, and a read needs the fill its data lands in. Either
// loaded cleanly and failed an MB_CHECK in the hierarchy once the data came
// back.
TEST(Checkpoint, RejectsAnAdmissionForACoreNotInTheRun) {
  const std::string msg = admissionTamperFailure(1, 20 * kMicrosecond, [](EngInboxes& e) {
    std::string* read = firstReadAdmission(e);
    ASSERT_NE(read, nullptr) << "no read admission buffered at the cut";
    read->replace(kAdmissionCoreAt, 4, le32(1000));
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'ENG'"),
            std::string::npos)
      << msg;
}

TEST(Checkpoint, RejectsAReadAdmissionWhoseFillIsNotPending) {
  const std::string msg = admissionTamperFailure(1, 20 * kMicrosecond, [](EngInboxes& e) {
    std::string* read = firstReadAdmission(e);
    ASSERT_NE(read, nullptr) << "no read admission buffered at the cut";
    read->replace(kAdmissionLineAt, 8, le(std::int64_t{1} << 50));
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'ENG'"),
            std::string::npos)
      << msg;
}

// A lane's admissions are for its own channel: a line moved to another
// lane would be served by a controller that does not own it. Over two
// channels, both lanes hold admissions at 24 us.
TEST(Checkpoint, RejectsAnAdmissionInAnotherChannelsLane) {
  const std::string msg = admissionTamperFailure(2, 24 * kMicrosecond, [](EngInboxes& e) {
    ASSERT_EQ(e.lanes.size(), 2u);
    ASSERT_FALSE(e.lanes[0].empty()) << "no admission buffered at the cut";
    e.lanes[1].push_back(e.lanes[0].front());
    e.lanes[0].erase(e.lanes[0].begin());
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'ENG'"),
            std::string::npos)
      << msg;
}

// A trace source's round-robin index selects one of its cursors; one past
// them would read and write beyond the cursor array once the run resumes.
TEST(Checkpoint, RejectsAStreamIndexPastTheStreams) {
  const std::string msg = sectionTamperFailure("TRACE", [](std::string& p) {
    // Core 0's SyntheticSource: 32 bytes of RNG state, the cursors (a u64
    // count, 8 bytes each), then the i32 index of the next stream.
    const std::uint64_t streams = ckpt::Reader(std::string_view(p).substr(32)).u64();
    p.replace(40 + 8 * streams, 4, le32(static_cast<std::int32_t>(streams)));
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'TRACE'"),
            std::string::npos)
      << msg;
}

TEST(Checkpoint, RejectsAScanIndexPastTheScans) {
  SystemConfig cfg = presetFast(shippedPresets().front());
  cfg.hier.numCores = 8;
  cfg.hier.coresPerCluster = 4;
  cfg.channels = 2;
  cfg.core.maxInstrs = 3000;
  const auto tpch = workloadByName("TPC-H");
  ASSERT_TRUE(tpch.has_value());
  const std::string msg = sectionTamperFailure(cfg, *tpch, "TRACE", [](std::string& p) {
    // Thread 0's TpcSource: RNG state, the scan cursors, the next scan.
    const std::uint64_t scans = ckpt::Reader(std::string_view(p).substr(32)).u64();
    p.replace(40 + 8 * scans, 4, le32(static_cast<std::int32_t>(scans)));
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'TRACE'"),
            std::string::npos)
      << msg;
}

// An ENG section whose inbox and stamp counters are all zero parses, but a
// read admission buffered at the cut is gone: the core waiting for it can
// never retire again, while the finished cores keep the memory system
// busy. The run must end in a diagnostic, not run on to the event cap.
TEST(Checkpoint, RestoreThatLostAnAdmissionEndsInADiagnostic) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  SystemConfig cfg = ddr3PcbConfig();
  cfg.core.maxInstrs = 10000;
  const std::string path = ::testing::TempDir() + "mb_ckpt_lost_admission.mbk";
  RunOptions save;
  save.checkpointAt = 20'000'000;
  save.checkpointPath = path;
  (void)runSimulation(cfg, workload, save);
  tamperSnapshot(path, [](ckpt::Snapshot& s) {
    for (auto& sec : s.sections) {
      if (sec.name != "ENG") continue;
      ASSERT_GT(sec.payload.size(), 28u) << "no admission buffered at the cut";
      ckpt::Writer w;
      w.u32(1);
      for (int i = 0; i < 3; ++i) w.u64(0);
      sec.payload = w.take();
    }
  });
  const std::string msg = restoreFailure(cfg, workload, path);
  EXPECT_NE(msg.find("error MB-CKP-013: restored run stalled: core "), std::string::npos)
      << msg;
  std::remove(path.c_str());
}

// The stall check reads only simulated state, so a restore that lost its
// admissions stalls at the same tick serial and sharded. Over two channels,
// both lanes hold admissions at 24 us.
TEST(Checkpoint, StalledRestoreEndsAtTheSameTickAtEveryShardCount) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  SystemConfig cfg = ddr3PcbConfig();
  cfg.core.maxInstrs = 10000;
  cfg.channels = 2;
  const std::string path = ::testing::TempDir() + "mb_ckpt_stall_shards.mbk";
  RunOptions save;
  save.checkpointAt = 24 * kMicrosecond;
  save.checkpointPath = path;
  (void)runSimulation(cfg, workload, save);
  tamperSnapshot(path, [](ckpt::Snapshot& s) {
    for (auto& sec : s.sections) {
      if (sec.name != "ENG") continue;
      ASSERT_GT(sec.payload.size(), 4u + 8 * 5) << "no admission buffered at the cut";
      ckpt::Writer w;
      w.u32(2);
      for (int i = 0; i < 5; ++i) w.u64(0);
      sec.payload = w.take();
    }
  });
  const std::string serial = restoreFailure(cfg, workload, path);
  EXPECT_NE(serial.find("error MB-CKP-013: restored run stalled: core "), std::string::npos)
      << serial;
  EXPECT_EQ(restoreFailure(cfg, workload, path, /*firstWindowOnly=*/false, /*shards=*/2),
            serial);
  std::remove(path.c_str());
}

// The hmc preset's serial link gives the hierarchy its one event of its own:
// a read response hopping back across the link (memLinkLatency), saved in
// the HIER section. Its 429.mcf run at 10 k instructions has one in flight
// at 20 us. HIER then ends in the u64 hop count, one 69-byte record (u64
// token, u8 kind, 40-byte stamp, i64 due, u64 line, i32 cluster), the u64
// next token and 80 bytes of stats.
constexpr Tick kHopCut = 20 * kMicrosecond;
constexpr std::size_t kHopCountFromEnd = 8 + 69 + 8 + 80;
constexpr std::size_t kHopKindFromEnd = kHopCountFromEnd - 8 - 8;

SystemConfig hmcFast() {
  for (const auto& preset : shippedPresets()) {
    if (preset.name != "hmc") continue;
    SystemConfig cfg = preset.cfg;
    cfg.core.maxInstrs = 10000;
    return cfg;
  }
  ADD_FAILURE() << "no hmc preset";
  return {};
}

/// Relabel the one in-flight hop's kind byte (2) as `Kind`.
template <std::uint8_t Kind>
void relabelHop(ckpt::Snapshot& s) {
  for (auto& sec : s.sections) {
    if (sec.name != "HIER") continue;
    ASSERT_GE(sec.payload.size(), kHopCountFromEnd);
    sec.payload[sec.payload.size() - kHopKindFromEnd] = static_cast<char>(Kind);
    return;
  }
  FAIL() << "checkpoint had no HIER section";
}

TEST(Checkpoint, RestoresAnInFlightResponseHop) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = hmcFast();
  const RunResult cold = runSimulation(cfg, workload);
  ASSERT_GT(cold.elapsed, kHopCut);

  const std::string path = ::testing::TempDir() + "mb_ckpt_hop.mbk";
  RunOptions save;
  save.checkpointAt = kHopCut;
  save.checkpointPath = path;
  expectBitIdentical(cold, runSimulation(cfg, workload, save));

  analysis::DiagnosticEngine diags;
  auto snap = ckpt::readSnapshotFile(path, diags);
  ASSERT_TRUE(snap.has_value()) << diags.renderText();
  const ckpt::SnapshotSection* hier = snap->section("HIER");
  ASSERT_NE(hier, nullptr);
  const std::string_view payload = hier->payload;
  ASSERT_GE(payload.size(), kHopCountFromEnd);
  ckpt::Reader tail(payload.substr(payload.size() - kHopCountFromEnd));
  EXPECT_EQ(tail.u64(), 1u) << "no response hop in flight at the cut";
  (void)tail.u64();          // token
  EXPECT_EQ(tail.u8(), 2u);  // the hop kind

  RunOptions load;
  load.restorePath = path;
  expectBitIdentical(cold, runSimulation(cfg, workload, load));
  std::remove(path.c_str());
}

// Kinds 0 and 1 were MC-bound admissions, which travel as engine messages
// (ENG section) now: a CRC-valid HIER section that relabels the hop as one
// must be rejected, not restored into a different run or a hang.
TEST(Checkpoint, RejectsAHopRelabelledAsAnAdmission) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = hmcFast();
  RunOptions save;
  save.checkpointAt = kHopCut;
  for (void (*relabel)(ckpt::Snapshot&) : {relabelHop<0>, relabelHop<1>}) {
    const std::string path = ::testing::TempDir() + "mb_ckpt_hopkind.mbk";
    save.checkpointPath = path;
    (void)runSimulation(cfg, workload, save);
    tamperSnapshot(path, relabel);

    const std::string msg = restoreFailure(cfg, workload, path);
    EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
    std::remove(path.c_str());
  }
}

/// Checkpoint hmcFast at the hop cut, let `edit` rewrite the HIER payload
/// and return the failure of restoring it.
std::string hopTamperFailure(const std::function<void(std::string&)>& edit) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = hmcFast();
  const std::string path = ::testing::TempDir() + "mb_ckpt_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".mbk";
  RunOptions save;
  save.checkpointAt = kHopCut;
  save.checkpointPath = path;
  (void)runSimulation(cfg, workload, save);
  tamperSnapshot(path, [&](ckpt::Snapshot& s) {
    for (auto& sec : s.sections) {
      if (sec.name != "HIER") continue;
      ASSERT_GE(sec.payload.size(), kHopCountFromEnd);
      edit(sec.payload);
      return;
    }
    FAIL() << "checkpoint had no HIER section";
  });
  const std::string msg = restoreFailure(cfg, workload, path);
  std::remove(path.c_str());
  return msg;
}

// A hop carries read data to a cluster of the run, into the fill pending
// there. A cluster outside the run, or a line no fill waits for, loaded
// cleanly and failed an MB_CHECK when the hop landed.
constexpr std::size_t kHopClusterFromEnd = 8 + 80 + 4;
constexpr std::size_t kHopLineFromEnd = kHopClusterFromEnd + 8;

TEST(Checkpoint, RejectsAHopForAClusterNotInTheRun) {
  const std::string msg = hopTamperFailure([](std::string& p) {
    p.replace(p.size() - kHopClusterFromEnd, 4, le32(1000));
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'HIER'"),
            std::string::npos)
      << msg;
}

TEST(Checkpoint, RejectsAHopWhoseFillIsNotPending) {
  const std::string msg = hopTamperFailure([](std::string& p) {
    p.replace(p.size() - kHopLineFromEnd, 8, le(std::int64_t{1} << 50));
  });
  EXPECT_NE(msg.find("error MB-CKP-012: malformed section payload 'HIER'"),
            std::string::npos)
      << msg;
}

// Warmup snapshot reuse: restoring a captured warmup must be bit-identical
// to replaying the warmup cold — including when the snapshot was captured
// under a DIFFERENT memory-side configuration (that is the whole point:
// one warmup serves every grid cell of a sweep).
TEST(Warmup, SnapshotRestoreMatchesColdWarmup) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());

  RunOptions cold;
  cold.warmupRecords = 2000;
  const RunResult coldRun = runSimulation(cfg, workload, cold);

  const std::string snap = captureWarmupSnapshot(cfg, workload, 2000);
  RunOptions restored;
  restored.warmupRecords = 2000;
  restored.warmupRestoreBuf = &snap;
  const RunResult restoredRun = runSimulation(cfg, workload, restored);
  expectBitIdentical(coldRun, restoredRun);
}

TEST(Warmup, SnapshotIsReusableAcrossMemoryConfigs) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig capture = presetFast(shippedPresets().front());

  // A different PHY, partitioning and policy — but the same workload, seed
  // and processor shape, so the warmup key matches.
  SystemConfig other = capture;
  other.phy = interface::PhyKind::Hmc;
  other.ubank = dram::UbankConfig{4, 4};
  other.pagePolicy = core::PolicyKind::Close;
  ASSERT_EQ(warmupKeyHash(capture, workload, 2000),
            warmupKeyHash(other, workload, 2000));

  RunOptions cold;
  cold.warmupRecords = 2000;
  const RunResult coldRun = runSimulation(other, workload, cold);

  const std::string snap = captureWarmupSnapshot(capture, workload, 2000);
  RunOptions restored;
  restored.warmupRecords = 2000;
  restored.warmupRestoreBuf = &snap;
  const RunResult restoredRun = runSimulation(other, workload, restored);
  expectBitIdentical(coldRun, restoredRun);
}

// The warm-up snapshot of a small 64-core TPC-H point, pinned byte for byte
// (FNV-1a64 over the encoded MBCKPT1 file). Its largest section is the
// coherence directory, a hash table saved through saveMapSorted: a change
// that lets table order, or anything else, reach the bytes fails here, in
// one fast test, before the golden corpus or a restore comparison notices.
TEST(Warmup, TpchSnapshotBytesArePinned) {
  const auto workload = workloadByName("TPC-H");
  ASSERT_TRUE(workload.has_value());
  SystemConfig cfg = shippedPresets().front().cfg;  // tsi-baseline
  applyWorkloadShape(cfg, *workload);
  ASSERT_EQ(cfg.hier.numCores, 64);
  const std::string snap = captureWarmupSnapshot(cfg, *workload, 1000);
  EXPECT_EQ(ckpt::fnv1a64(snap), 0x899f2e9bbb3649aeull);
}

TEST(Warmup, RejectsKeyMismatch) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const std::string snap = captureWarmupSnapshot(cfg, workload, 1000);

  ScopedCheckTrap trap;
  try {
    RunOptions opts;
    opts.warmupRecords = 2000;  // captured length was 1000: key differs
    opts.warmupRestoreBuf = &snap;
    (void)runSimulation(cfg, workload, opts);
    FAIL() << "mismatched warmup key accepted";
  } catch (const CheckFailure& f) {
    EXPECT_NE(f.message.find("MB-CKP-005"), std::string::npos) << f.message;
    EXPECT_EQ(contextLines(f.message, "snapshot"), 1u) << f.message;
    EXPECT_EQ(contextLines(f.message, "snapshotWarmupKey"), 1u) << f.message;
    EXPECT_EQ(contextLines(f.message, "expectedWarmupKey"), 1u) << f.message;
  }
}

}  // namespace
}  // namespace mb::sim
