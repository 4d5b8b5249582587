// Differential property test for channel-sharded execution (DESIGN.md §14)
// and the runtime gate for determinism and snapshot completeness (§11): over
// a seeded (config, workload) grid, a sharded run must be bitwise
// indistinguishable from the serial run — the full JSON report and the
// MBCMDT1 command-trace bytes compare EQUAL as bytes, not approximately — and
// a run restored from a mid-run MBCKPT1 snapshot must finish with the cold
// run's report. Each cell is its own test case: two cuts, each written at
// two shard counts (the files must be byte-identical) and restored at the
// other count. Adversarial shapes ride along: a single-channel system, more
// shards than channels, and a workload that leaves almost every channel with
// zero requests. One longer point where the forward rule cuts windows short
// is pinned against hashes taken from an engine whose every window was one
// command transfer wide, so no read could ever be forwarded inside one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/system.hpp"
#include "trace/trace_file.hpp"

namespace mb::sim {
namespace {

std::string readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// splitmix64: tiny, seedable, and stable across platforms — the grid below
/// must name the same cells forever so failures reproduce by index.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Cell {
  std::string label;
  SystemConfig cfg;
  WorkloadSpec workload;
  int shards = 2;
  /// Warm start: every run of the cell restores one captured warm-up buffer
  /// of this many records per core (0: cold caches).
  std::int64_t warmupRecords = 0;
};

/// A 64-core point in the workload shape mbsim gives it.
Cell wideCell(const std::string& label, const WorkloadSpec& workload,
              core::PolicyKind policy, int channels, int instrs, int shards) {
  Cell c;
  c.label = label;
  c.workload = workload;
  c.cfg.pagePolicy = policy;
  c.cfg.channels = channels;
  c.cfg.hier.numCores = 64;
  c.cfg.hier.coresPerCluster = 4;
  c.cfg.core.maxInstrs = instrs;
  c.shards = shards;
  return c;
}

/// The grid. Cells 0-3 are seeded random draws crossing PHY, partitioning,
/// scheduler, policy, channel count and workload — every dimension that
/// feeds the per-channel event streams. The cells after them are chosen:
///   4  cell 0 with every command checked live, so its snapshots carry each
///      controller's auditor state and the restored auditors must pick it up;
///   5, 6  a 64-core 16-channel TPC-H point under the close and tournament
///      policies, whose idle precharges queue up in kick()'s pending-close
///      scan at every cut;
///   7, 8  warm write-heavy points: 64 cores on 4 channels with a small L2,
///      so write drains are in progress at the cuts.
/// Append new cells at the end: a cell keeps its index, so a failure
/// reproduces by name.
std::vector<Cell> seededGrid() {
  std::uint64_t rng = 0x5eedc0ffee0d10ull;  // fixed: the grid is part of the test
  const interface::PhyKind phys[] = {interface::PhyKind::LpddrTsi,
                                     interface::PhyKind::Hmc,
                                     interface::PhyKind::Ddr3Tsi};
  const dram::UbankConfig ubanks[] = {{1, 1}, {4, 4}, {8, 2}};
  const mc::SchedulerKind scheds[] = {mc::SchedulerKind::Fcfs,
                                      mc::SchedulerKind::FrFcfs,
                                      mc::SchedulerKind::ParBs};
  const trace::MtKind kinds[] = {trace::MtKind::Radix, trace::MtKind::Fft,
                                 trace::MtKind::Canneal, trace::MtKind::TpcC};
  const int channelChoices[] = {2, 4, 8};

  std::vector<Cell> grid;
  for (int i = 0; i < 4; ++i) {
    Cell c;
    c.cfg.phy = phys[splitmix64(rng) % 3];
    c.cfg.ubank = ubanks[splitmix64(rng) % 3];
    c.cfg.scheduler = scheds[splitmix64(rng) % 3];
    c.cfg.pagePolicy = (splitmix64(rng) % 2 == 0) ? core::PolicyKind::Open
                                                  : core::PolicyKind::Close;
    c.cfg.channels = channelChoices[splitmix64(rng) % 3];
    c.cfg.queueDepth = (splitmix64(rng) % 2 == 0) ? 16 : 32;
    c.cfg.perBankRefresh = splitmix64(rng) % 2 == 0;
    c.cfg.xorBankHash = splitmix64(rng) % 2 == 0;
    c.cfg.seed = 1000 + splitmix64(rng) % 9000;
    c.cfg.hier.numCores = 8;
    c.cfg.hier.coresPerCluster = 4;
    c.cfg.core.maxInstrs = 4000;
    c.workload = WorkloadSpec::mt(kinds[splitmix64(rng) % 4]);
    // Exercise both partial pools and one-worker-per-channel.
    c.shards = 2 + static_cast<int>(splitmix64(rng) %
                                    static_cast<std::uint64_t>(c.cfg.channels - 1));
    std::ostringstream label;
    label << "cell" << i << ":" << c.workload.name << " phy="
          << static_cast<int>(c.cfg.phy) << " ch=" << c.cfg.channels
          << " shards=" << c.shards;
    c.label = label.str();
    grid.push_back(c);
  }

  Cell checking = grid[0];
  checking.cfg.timingCheck = true;
  checking.label.replace(0, 5, "cell4");
  checking.label += " timing-check";
  grid.push_back(checking);

  const auto tpch = WorkloadSpec::mt(trace::MtKind::TpcH);
  grid.push_back(wideCell("cell5:TPC-H close ch=16 shards=4", tpch,
                          core::PolicyKind::Close, 16, 3000, 4));
  grid.push_back(wideCell("cell6:TPC-H tournament ch=16 shards=3", tpch,
                          core::PolicyKind::Tournament, 16, 3000, 3));

  const auto mix = WorkloadSpec::mix("mix-high");
  Cell drain = wideCell("cell7:mix-high open ch=4 warm shards=2", mix,
                        core::PolicyKind::Open, 4, 2000, 2);
  drain.cfg.hier.l2Bytes = 256 * 1024;
  drain.warmupRecords = 2000;
  grid.push_back(drain);
  drain = wideCell("cell8:mix-high close ch=4 warm shards=3", mix,
                   core::PolicyKind::Close, 4, 2000, 3);
  drain.cfg.hier.l2Bytes = 64 * 1024;
  drain.warmupRecords = 1000;
  grid.push_back(drain);
  return grid;
}

std::string runJson(const SystemConfig& cfg, const WorkloadSpec& wl,
                    const RunOptions& opts) {
  return runResultToJson(runSimulation(cfg, wl, opts));
}

class ShardDifferentialGrid : public ::testing::TestWithParam<int> {};

// One cell: the report and the MBCMDT1 bytes of a serial and a sharded run;
// then at two cuts, a snapshot written by each engine (the files must be
// byte-identical, since the format has no shard-dependent content), each
// restored by the other engine to the cold report. The cuts are +7 ps off
// any command or window granularity, so they land strictly inside a
// lookahead window.
TEST_P(ShardDifferentialGrid, ShardAndRestoreInvariant) {
  const Cell cell = seededGrid().at(static_cast<std::size_t>(GetParam()));
  SCOPED_TRACE(cell.label);
  const std::string tmp = ::testing::TempDir() + "mb_sdiff" +
                          std::to_string(GetParam()) + "_";
  std::string warm;
  if (cell.warmupRecords > 0)
    warm = captureWarmupSnapshot(cell.cfg, cell.workload, cell.warmupRecords);
  const auto options = [&](int shards) {
    RunOptions o;
    o.shards = shards;
    if (cell.warmupRecords > 0) {
      o.warmupRecords = cell.warmupRecords;
      o.warmupRestoreBuf = &warm;
    }
    return o;
  };

  SystemConfig recording = cell.cfg;
  recording.recordCmdsPath = tmp + "ser.mbcmd";
  const RunResult cold = runSimulation(recording, cell.workload, options(1));
  ASSERT_GT(cold.elapsed, 0);
  const std::string coldJson = runResultToJson(cold);
  recording.recordCmdsPath = tmp + "shd.mbcmd";
  EXPECT_EQ(runJson(recording, cell.workload, options(cell.shards)), coldJson);
  const std::string serialTrace = readFileBytes(tmp + "ser.mbcmd");
  ASSERT_FALSE(serialTrace.empty());
  EXPECT_EQ(serialTrace, readFileBytes(tmp + "shd.mbcmd"))
      << "MBCMDT1 streams diverged";
  std::remove((tmp + "ser.mbcmd").c_str());
  std::remove((tmp + "shd.mbcmd").c_str());

  for (const int third : {1, 2}) {
    const Tick cut = cold.elapsed * third / 3 + 7;
    SCOPED_TRACE("cut at " + std::to_string(cut) + " ps");
    const std::string serialCkpt = tmp + "ser.mbk";
    const std::string shardCkpt = tmp + "shd.mbk";
    RunOptions serial = options(1);
    serial.checkpointAt = cut;
    serial.checkpointPath = serialCkpt;
    EXPECT_EQ(runJson(cell.cfg, cell.workload, serial), coldJson);
    RunOptions sharded = options(cell.shards);
    sharded.checkpointAt = cut;
    sharded.checkpointPath = shardCkpt;
    EXPECT_EQ(runJson(cell.cfg, cell.workload, sharded), coldJson);
    const std::string serialBytes = readFileBytes(serialCkpt);
    ASSERT_FALSE(serialBytes.empty());
    EXPECT_EQ(serialBytes, readFileBytes(shardCkpt))
        << "MBCKPT1 snapshots diverged between shard counts";

    RunOptions restoreSerial;
    restoreSerial.restorePath = shardCkpt;
    EXPECT_EQ(runJson(cell.cfg, cell.workload, restoreSerial), coldJson)
        << "the sharded snapshot restored serially diverged from the cold run";
    RunOptions restoreSharded;
    restoreSharded.shards = cell.shards;
    restoreSharded.restorePath = serialCkpt;
    EXPECT_EQ(runJson(cell.cfg, cell.workload, restoreSharded), coldJson)
        << "the serial snapshot restored sharded diverged from the cold run";
    std::remove(serialCkpt.c_str());
    std::remove(shardCkpt.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, ShardDifferentialGrid,
                         ::testing::Range(0, static_cast<int>(seededGrid().size())));

// tsi-baseline 429.mcf at 300 k instructions: reads meet buffered writes
// often enough that the forward rule cuts windows (the golden corpus's 10 k
// slice never does). The report and the MBCMDT1 bytes must be those of the
// tCMD-wide windows, which needed no cut.
TEST(ShardDifferential, ForwardCutPointIsPinned) {
  const std::string trace = ::testing::TempDir() + "mb_sdiff_fwd.mbcmd";
  SystemConfig cfg = tsiBaselineConfig();
  cfg.core.maxInstrs = 300000;
  cfg.recordCmdsPath = trace;
  const RunResult r = runSimulation(cfg, WorkloadSpec::spec("429.mcf"));
  EXPECT_GE(r.windowsCut, 1u) << "the point no longer exercises the forward cut";
  EXPECT_EQ(ckpt::fnv1a64(runResultToJson(r)), 0xc327cb9d8c5134daull);
  EXPECT_EQ(ckpt::fnv1a64(readFileBytes(trace)), 0x59b0b7ccec972275ull);
  std::remove(trace.c_str());
}

// A forwardable read due within one forward latency of a window's uncut
// end must not move the end past it. 470.lbm on eight cores and four
// channels with a 64 KiB L2 has one due at 9,069,250 ps in the 16 ns window
// from 9,054,000 ps; taking its cut as the end widened the window to
// 9,070,500 ps, and a CAS-served read then completed inside it. The run
// must complete, with the same report at every shard count.
TEST(ShardDifferential, ForwardCutNeverWidensTheWindow) {
  SystemConfig cfg = tsiBaselineConfig();
  cfg.specCopies = 8;
  cfg.channels = 4;
  cfg.hier.l2Bytes = 64 * kKiB;
  cfg.core.maxInstrs = 4000;
  const auto wl = WorkloadSpec::spec("470.lbm");
  ScopedCheckTrap trap;
  try {
    std::string serial;
    for (const int shards : {1, 4}) {
      RunOptions opts;
      opts.warmupRecords = 10000;
      opts.shards = shards;
      const RunResult r = runSimulation(cfg, wl, opts);
      EXPECT_GE(r.windowsCut, 1u) << "the point no longer exercises the forward cut";
      if (shards == 1) serial = runResultToJson(r);
      else EXPECT_EQ(runResultToJson(r), serial);
    }
  } catch (const CheckFailure& f) {
    FAIL() << f.message;
  }
}

// Adversarial: one channel. The pool never engages (workers clamp to
// channel count), and every shard value must reproduce the serial bytes.
TEST(ShardDifferential, SingleChannelSystemIsShardInvariant) {
  SystemConfig cfg;  // SingleSpec default: one populated controller (§VI-A)
  cfg.core.maxInstrs = 6000;
  const auto wl = WorkloadSpec::spec("429.mcf");
  ASSERT_EQ(resolvedChannels(cfg, wl), 1);
  RunOptions serial;
  const std::string serialJson = runJson(cfg, wl, serial);
  for (const int shards : {2, 8}) {
    RunOptions opts;
    opts.shards = shards;
    EXPECT_EQ(runJson(cfg, wl, opts), serialJson) << "shards=" << shards;
  }
}

// Adversarial: more shards than channels — the worker pool clamps to one
// thread per channel and the result must not move.
TEST(ShardDifferential, MoreShardsThanChannelsClampsCleanly) {
  SystemConfig cfg;
  cfg.channels = 2;
  cfg.hier.numCores = 8;
  cfg.hier.coresPerCluster = 4;
  cfg.core.maxInstrs = 4000;
  const auto wl = WorkloadSpec::mt(trace::MtKind::Fft);
  RunOptions serial;
  const std::string serialJson = runJson(cfg, wl, serial);
  RunOptions over;
  over.shards = 64;  // 32x the channel count
  EXPECT_EQ(runJson(cfg, wl, over), serialJson);
}

// Adversarial: a workload whose traffic collapses onto one cache line — one
// cold DRAM miss total, so all but one channel see ZERO requests for the
// whole run and their windows are permanently empty. The engine must drain
// cleanly and identically at every shard count.
TEST(ShardDifferential, ZeroRequestChannelsDrainIdentically) {
  const std::string prefix = ::testing::TempDir() + "mb_sdiff_zero";
  const int cores = 4;
  for (int c = 0; c < cores; ++c) {
    trace::TraceFileWriter w(prefix + "." + std::to_string(c) + ".mbt");
    for (int r = 0; r < 32; ++r) {
      trace::Record rec;
      rec.gapInstrs = 40;
      rec.addr = 0x40;  // every core, every record: the same line
      w.append(rec);
    }
  }
  SystemConfig cfg;
  cfg.channels = 4;  // multi-channel system, single-line traffic
  cfg.specCopies = cores;
  cfg.core.maxInstrs = 2000;
  const auto wl = WorkloadSpec::traceFiles(prefix);
  RunOptions serial;
  const RunResult cold = runSimulation(cfg, wl, serial);
  EXPECT_LE(cold.dramReads + cold.dramWrites, 2)
      << "expected (near) zero DRAM traffic from a one-line trace";
  const std::string serialJson = runResultToJson(cold);
  for (const int shards : {2, 4}) {
    RunOptions opts;
    opts.shards = shards;
    EXPECT_EQ(runJson(cfg, wl, opts), serialJson) << "shards=" << shards;
  }
  for (int c = 0; c < cores; ++c)
    std::remove((prefix + "." + std::to_string(c) + ".mbt").c_str());
}

}  // namespace
}  // namespace mb::sim
