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

/// Run a restore under a check trap and return the failure text.
std::string restoreFailure(const SystemConfig& cfg, const WorkloadSpec& workload,
                           const std::string& path) {
  ScopedCheckTrap trap;
  try {
    RunOptions load;
    load.restorePath = path;
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
                    void (*mutate)(ckpt::Snapshot&)) {
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

/// One coherence-directory record of a HIER payload.
struct DirRecord {
  std::uint64_t line;
  std::uint32_t sharers;
  std::int32_t owner;
};

/// Decode the coherence directory out of `s`'s HIER section, let `edit`
/// change its records, and write them back in place. HIER opens with the L1
/// and then the L2 caches (a u64 cache count, then per cache a u64 line
/// count, 18 bytes per line and a u64 LRU clock); the directory follows as
/// a u64 count of 16-byte records (i64 line, u32 sharers, i32 owner).
void editDirectory(ckpt::Snapshot& s,
                   const std::function<void(std::vector<DirRecord>&)>& edit) {
  for (auto& sec : s.sections) {
    if (sec.name != "HIER") continue;
    ckpt::Reader r(sec.payload);
    for (int level = 0; level < 2; ++level) {
      const std::uint64_t caches = r.u64();
      for (std::uint64_t c = 0; c < caches; ++c) {
        (void)r.view(r.u64() * 18);
        (void)r.u64();
      }
    }
    const std::size_t dirAt = sec.payload.size() - r.remaining();
    std::vector<DirRecord> dir(r.u64());
    for (auto& d : dir) {
      d.line = r.u64();
      d.sharers = r.u32();
      d.owner = r.i32();
    }
    ASSERT_TRUE(r.ok());
    ASSERT_GE(dir.size(), 2u);
    const std::size_t dirEnd = sec.payload.size() - r.remaining();
    edit(dir);
    ckpt::Writer w;
    w.u64(dir.size());
    for (const auto& d : dir) {
      w.u64(d.line);
      w.u32(d.sharers);
      w.i32(d.owner);
    }
    sec.payload = sec.payload.substr(0, dirAt) + w.str() + sec.payload.substr(dirEnd);
    return;
  }
  FAIL() << "checkpoint had no HIER section";
}

/// Restore a 429.mcf checkpoint whose directory `edit` rewrote (CRCs
/// recomputed) and return the failure text. The file is named after the
/// running test, since ctest runs the tests as parallel processes.
std::string directoryTamperFailure(
    const std::function<void(std::vector<DirRecord>&)>& edit) {
  const auto workload = WorkloadSpec::spec("429.mcf");
  const SystemConfig cfg = presetFast(shippedPresets().front());
  const std::string path = ::testing::TempDir() + "mb_ckpt_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".mbk";
  writeCheckpoint(cfg, workload, path);
  analysis::DiagnosticEngine diags;
  auto snap = ckpt::readSnapshotFile(path, diags);
  if (!snap) return "unreadable checkpoint: " + diags.renderText();
  editDirectory(*snap, edit);
  if (!ckpt::writeSnapshotFile(*snap, path, diags))
    return "unwritable checkpoint: " + diags.renderText();
  const std::string msg = restoreFailure(cfg, workload, path);
  std::remove(path.c_str());
  return msg;
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
