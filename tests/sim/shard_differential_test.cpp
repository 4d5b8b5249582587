// Differential property test for channel-sharded execution (DESIGN.md §14):
// over a seeded (config, workload) grid, a sharded run must be bitwise
// indistinguishable from the serial run — the full JSON report, the MBCMDT1
// command-trace bytes, and a mid-run MBCKPT1 snapshot all compare EQUAL as
// bytes, not approximately. Adversarial shapes ride along: a single-channel
// system, more shards than channels, a workload that leaves almost every
// channel with zero requests, and checkpoint/restore cut mid-window across
// shard counts (including restoring a sharded-written snapshot serially and
// vice versa). One longer point where the forward rule cuts windows short is
// pinned against hashes taken from an engine whose every window was one
// command transfer wide, so no read could ever be forwarded inside one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
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
};

/// Seeded random grid. Four cells keeps the suite under a few seconds while
/// still crossing PHY, partitioning, scheduler, policy, channel count and
/// workload — every dimension that feeds the per-channel event streams.
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
  return grid;
}

std::string runJson(const SystemConfig& cfg, const WorkloadSpec& wl,
                    const RunOptions& opts) {
  return runResultToJson(runSimulation(cfg, wl, opts));
}

// Report JSON and MBCMDT1 command-trace bytes: serial vs sharded, per cell.
TEST(ShardDifferential, ReportAndCommandTraceBitwiseEqual) {
  for (const Cell& cell : seededGrid()) {
    SCOPED_TRACE(cell.label);
    const std::string serialTrace =
        ::testing::TempDir() + "mb_sdiff_ser_" + std::to_string(cell.cfg.seed) + ".mbcmd";
    const std::string shardTrace =
        ::testing::TempDir() + "mb_sdiff_shd_" + std::to_string(cell.cfg.seed) + ".mbcmd";

    SystemConfig cfg = cell.cfg;
    cfg.recordCmdsPath = serialTrace;
    RunOptions serial;
    serial.shards = 1;
    const std::string serialJson = runJson(cfg, cell.workload, serial);

    cfg.recordCmdsPath = shardTrace;
    RunOptions sharded;
    sharded.shards = cell.shards;
    const std::string shardedJson = runJson(cfg, cell.workload, sharded);

    EXPECT_EQ(serialJson, shardedJson);
    const std::string serialBytes = readFileBytes(serialTrace);
    ASSERT_FALSE(serialBytes.empty());
    EXPECT_EQ(serialBytes, readFileBytes(shardTrace))
        << "MBCMDT1 streams diverged";
    std::remove(serialTrace.c_str());
    std::remove(shardTrace.c_str());
  }
}

// Mid-window checkpoint: the snapshot FILE must be byte-identical across
// shard counts (the format has no shard-dependent content), and restores
// must complete bit-identically in every serial/sharded pairing — including
// restoring a sharded-written snapshot with a serial engine and vice versa.
// The third cell checks every command live, so its snapshot carries each
// controller's auditor state and the restored auditors must pick it up.
TEST(ShardDifferential, MidRunCheckpointBytesAndRestoresMatch) {
  const auto grid = seededGrid();
  Cell checking = grid[0];
  checking.cfg.timingCheck = true;
  checking.label += " timing-check";
  ASSERT_GT(checking.cfg.channels, 1);
  const Cell* cells[] = {&grid[0], &grid[1], &checking};  // 6 sims each
  for (std::size_t i = 0; i < 3; ++i) {
    const Cell& cell = *cells[i];
    SCOPED_TRACE(cell.label);
    const RunResult cold = runSimulation(cell.cfg, cell.workload);
    ASSERT_GT(cold.elapsed, 0);
    const std::string coldJson = runResultToJson(cold);

    // +7 ps: deliberately NOT aligned to any command/window granularity, so
    // the cut lands strictly inside a lookahead window.
    const Tick cut = cold.elapsed / 2 + 7;
    const std::string serialCkpt = ::testing::TempDir() + "mb_sdiff_ser" +
                                   std::to_string(i) + ".mbk";
    const std::string shardCkpt = ::testing::TempDir() + "mb_sdiff_shd" +
                                  std::to_string(i) + ".mbk";

    RunOptions serial;
    serial.shards = 1;
    serial.checkpointAt = cut;
    serial.checkpointPath = serialCkpt;
    EXPECT_EQ(runJson(cell.cfg, cell.workload, serial), coldJson);

    RunOptions sharded;
    sharded.shards = cell.shards;
    sharded.checkpointAt = cut;
    sharded.checkpointPath = shardCkpt;
    EXPECT_EQ(runJson(cell.cfg, cell.workload, sharded), coldJson);

    const std::string serialBytes = readFileBytes(serialCkpt);
    ASSERT_FALSE(serialBytes.empty());
    EXPECT_EQ(serialBytes, readFileBytes(shardCkpt))
        << "MBCKPT1 snapshots diverged between shard counts";

    // Cross-restore: sharded snapshot into a serial engine and the serial
    // snapshot into a sharded engine.
    RunOptions restoreSerial;
    restoreSerial.shards = 1;
    restoreSerial.restorePath = shardCkpt;
    EXPECT_EQ(runJson(cell.cfg, cell.workload, restoreSerial), coldJson);

    RunOptions restoreSharded;
    restoreSharded.shards = cell.shards;
    restoreSharded.restorePath = serialCkpt;
    EXPECT_EQ(runJson(cell.cfg, cell.workload, restoreSharded), coldJson);

    std::remove(serialCkpt.c_str());
    std::remove(shardCkpt.c_str());
  }
}

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
