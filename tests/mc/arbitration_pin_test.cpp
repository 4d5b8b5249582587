// Pinned arbitration outcomes across every scheduler, a spread of page
// policies, and both a conventional and a μbank geometry. The golden preset
// hashes all run PAR-BS on one workload; this grid pins the controller's
// exact command stream (FNV-1a64 over every committed command's kind,
// address and tick) and its final statistics for the combinations they do
// not reach. Each case drives one seeded request stream whose arrivals are
// interleaved with single event-queue steps, so requests arrive both while
// the command bus is free and while it is busy; a third are writes, enough
// to push the write queue past its high watermark, and each thread mixes
// row hits with conflicts against other threads' rows. Two cases narrow the
// read window to four entries, so reads wait in the overflow FIFO and each
// retired read refills the window while a PAR-BS batch is marked in it.
//
// The values were taken from the full-rescan form of the arbitration loop
// (every pass rebuilt all candidates, every precharge guard scanned the
// queues); a moved value is a behaviour change, not a speed change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "mc/controller.hpp"

namespace mb::mc {
namespace {

struct PinCase {
  SchedulerKind scheduler;
  core::PolicyKind policy;
  int nW;
  int nB;
  std::uint64_t commandHash;
  std::uint64_t statsHash;
  int queueDepth = 32;  // the scheduler-visible read window
};

std::string caseName(const ::testing::TestParamInfo<PinCase>& info) {
  const PinCase& c = info.param;
  std::string s = c.scheduler == SchedulerKind::Fcfs     ? "Fcfs"
                  : c.scheduler == SchedulerKind::FrFcfs ? "FrFcfs"
                                                         : "ParBs";
  switch (c.policy) {
    case core::PolicyKind::Open: s += "_Open"; break;
    case core::PolicyKind::Close: s += "_Close"; break;
    case core::PolicyKind::Tournament: s += "_Tournament"; break;
    case core::PolicyKind::Perfect: s += "_Perfect"; break;
    default: s += "_Other"; break;
  }
  s += "_u" + std::to_string(c.nW) + std::to_string(c.nB);
  return c.queueDepth == 32 ? s : s + "_q" + std::to_string(c.queueDepth);
}

std::uint64_t statsHash(const ControllerStats& s) {
  ckpt::Writer w;
  w.i64(s.reads);
  w.i64(s.writes);
  w.i64(s.rowHits);
  w.i64(s.rowMisses);
  w.i64(s.rowConflicts);
  w.i64(s.forwardedReads);
  w.i64(s.specDecisions);
  w.i64(s.specCorrect);
  w.f64(s.avgReadLatencyNs);
  w.f64(s.avgQueueOccupancy);
  w.f64(s.dataBusUtilization);
  w.i64(s.activations);
  w.i64(s.refreshes);
  return ckpt::fnv1a64(w.str());
}

class ArbitrationPinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(ArbitrationPinTest, CommandStreamAndStatsMatchPinned) {
  const PinCase& pc = GetParam();
  dram::Geometry geom;
  geom.channels = 1;
  geom.ranksPerChannel = 2;
  geom.banksPerRank = 8;
  geom.ubank = {pc.nW, pc.nB};
  geom.capacityBytes = 4 * kGiB;
  const core::AddressMap map = core::AddressMap::pageInterleaved(geom);
  ControllerConfig cfg;
  cfg.scheduler = pc.scheduler;
  cfg.pagePolicy = pc.policy;
  cfg.enableTimingCheck = true;
  cfg.writeHighWatermark = 12;
  cfg.writeLowWatermark = 4;
  cfg.queueDepth = pc.queueDepth;
  EventQueue eq;
  MemoryController mc(0, geom, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
                      map, cfg, eq);

  ckpt::Writer trace;
  int readsSent = 0, readCas = 0, drainWrites = 0;
  mc.commandTrace = [&](DramCommand cmd, const core::DramAddress& da, Tick at) {
    trace.u8(static_cast<std::uint8_t>(cmd));
    trace.i32(da.rank);
    trace.i32(da.bank);
    trace.i32(da.ubank);
    trace.i64(da.row);
    trace.i64(da.column);
    trace.i64(at);
    if (cmd == DramCommand::Read) ++readCas;
    // Reads outrank buffered writes unless the write queue crossed its high
    // watermark, so a write issued while reads wait is a drain-mode write.
    if (cmd == DramCommand::Write &&
        readsSent - mc.stats().forwardedReads - readCas > 0)
      ++drainWrites;
  };

  constexpr int kThreads = 4;
  constexpr int kRequests = 600;
  Rng rng(0x5eedULL);
  std::vector<std::int64_t> hotRow(kThreads);
  for (int t = 0; t < kThreads; ++t) hotRow[static_cast<size_t>(t)] = 10 + t;
  int completed = 0, busyArrivals = 0, freeArrivals = 0, overflowArrivals = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto thread = static_cast<ThreadId>(rng.nextBounded(kThreads));
    core::DramAddress da;
    da.rank = static_cast<int>(rng.nextBounded(2));
    da.bank = static_cast<int>(rng.nextBounded(3));  // few banks: shared rows collide
    da.ubank = static_cast<int>(rng.nextBounded(
        static_cast<std::uint64_t>(geom.ubanksPerBank())));
    // Mostly the thread's hot row (hits for it, conflicts for the other
    // threads on the same bank); otherwise a random row.
    da.row = rng.nextBool(0.6) ? hotRow[static_cast<size_t>(thread)]
                               : static_cast<std::int64_t>(rng.nextBounded(64));
    da.column = static_cast<std::int64_t>(rng.nextBounded(32));
    if (rng.nextBool(0.05)) hotRow[static_cast<size_t>(thread)] += 7;  // phase change
    MemRequest r;
    r.addr = map.compose(da);
    r.thread = thread;
    r.core = thread;
    r.write = rng.nextBool(1.0 / 3.0);
    if (!r.write) {
      ++readsSent;
      r.onComplete = [&completed](Tick) { ++completed; };
    }
    (mc.channel().cmdBusFreeAt() > eq.now() ? busyArrivals : freeArrivals) += 1;
    mc.enqueue(std::move(r));
    // Queued reads past the window's size wait in the overflow FIFO.
    if (readsSent - mc.stats().forwardedReads - readCas > pc.queueDepth) ++overflowArrivals;
    const auto steps = rng.nextBounded(4);
    for (std::uint64_t s = 0; s < steps; ++s) eq.step();
  }
  eq.run();

  // The stream exercised what it is meant to pin.
  EXPECT_GT(busyArrivals, kRequests / 10);
  EXPECT_GT(freeArrivals, kRequests / 10);
  EXPECT_GT(drainWrites, 0);
  if (pc.queueDepth < 32) {
    EXPECT_GT(overflowArrivals, kRequests / 10);
  }
  EXPECT_EQ(completed, readsSent);
  EXPECT_EQ(mc.outstanding(), 0);

  const ControllerStats st = mc.stats();
  EXPECT_GT(st.rowHits, 0);
  EXPECT_GT(st.rowConflicts, 0);
  const std::uint64_t cmdHash = ckpt::fnv1a64(trace.str());
  const std::uint64_t stHash = statsHash(st);
  EXPECT_EQ(cmdHash, pc.commandHash) << std::hex << "command hash 0x" << cmdHash;
  EXPECT_EQ(stHash, pc.statsHash) << std::hex << "stats hash 0x" << stHash;
}

using core::PolicyKind;
constexpr SchedulerKind kFcfs = SchedulerKind::Fcfs;
constexpr SchedulerKind kFrFcfs = SchedulerKind::FrFcfs;
constexpr SchedulerKind kParBs = SchedulerKind::ParBs;

INSTANTIATE_TEST_SUITE_P(
    SchedulerPolicyUbank, ArbitrationPinTest,
    ::testing::Values(
        PinCase{kFcfs, PolicyKind::Open, 1, 1, 0xc4cd83ae36b4f462ULL, 0xfaf848b71b7f2d3cULL},
        PinCase{kFcfs, PolicyKind::Open, 4, 4, 0xd601ce4a8bbfd4d9ULL, 0x32c3cdeb6bc5afc5ULL},
        PinCase{kFcfs, PolicyKind::Close, 1, 1, 0xaf036a9879d26780ULL, 0xdac363e280263bf4ULL},
        PinCase{kFcfs, PolicyKind::Close, 4, 4, 0xf5aeb2e1e008cfa9ULL, 0x3c0b4712fa49177dULL},
        PinCase{kFcfs, PolicyKind::Tournament, 1, 1, 0x975fdfb629418ed4ULL, 0xde0ad7007e68e326ULL},
        PinCase{kFcfs, PolicyKind::Tournament, 4, 4, 0x3a7d35f28ee8f5fcULL, 0xdd0363ccb24c7526ULL},
        PinCase{kFcfs, PolicyKind::Perfect, 1, 1, 0x3b33fbf8ed81d893ULL, 0x80c316ac00678de5ULL},
        PinCase{kFcfs, PolicyKind::Perfect, 4, 4, 0x778044032af96e5dULL, 0x6dc33022de3ea918ULL},
        PinCase{kFrFcfs, PolicyKind::Open, 1, 1, 0x9dc54f0701625df1ULL, 0x65c5e7c62cbf54deULL},
        PinCase{kFrFcfs, PolicyKind::Open, 4, 4, 0xac4682df3a8be94cULL, 0x61a942ee4103e3b8ULL},
        PinCase{kFrFcfs, PolicyKind::Close, 1, 1, 0xf649e41cff1d34edULL, 0xad53fa880da0ab8dULL},
        PinCase{kFrFcfs, PolicyKind::Close, 4, 4, 0xdd2f25afc0930a84ULL, 0x8de220f95685feb5ULL},
        PinCase{kFrFcfs, PolicyKind::Tournament, 1, 1, 0x4e513f2935ff446fULL, 0x2cce1bd3a339e8cbULL},
        PinCase{kFrFcfs, PolicyKind::Tournament, 4, 4, 0xa6463a7523cdc588ULL, 0x1136513dd23fd1cdULL},
        PinCase{kFrFcfs, PolicyKind::Perfect, 1, 1, 0x267b38fb619b53c5ULL, 0x9d2a788be1158677ULL},
        PinCase{kFrFcfs, PolicyKind::Perfect, 4, 4, 0x78deae4aed2f5d9cULL, 0x595fdfaa9ac2d683ULL},
        PinCase{kParBs, PolicyKind::Open, 1, 1, 0x64ce0c68894dc87ULL, 0x47352b835e3097d0ULL},
        PinCase{kParBs, PolicyKind::Open, 4, 4, 0xcb6794725e871da0ULL, 0xb4090a9682ba906ULL},
        PinCase{kParBs, PolicyKind::Close, 1, 1, 0x7068c46ec12fbd5eULL, 0x27d5b0806f811056ULL},
        PinCase{kParBs, PolicyKind::Close, 4, 4, 0x9126ccb3948d6583ULL, 0x5a48dbc0a6561eULL},
        PinCase{kParBs, PolicyKind::Tournament, 1, 1, 0x644661b03a4bfefbULL, 0x1bc773c07d9238a2ULL},
        PinCase{kParBs, PolicyKind::Tournament, 4, 4, 0xbc8b663abeb5c156ULL, 0x369e7c24e183fe24ULL},
        PinCase{kParBs, PolicyKind::Perfect, 1, 1, 0xdbe21dbf7259e801ULL, 0xcb8bb27e3a589552ULL},
        PinCase{kParBs, PolicyKind::Perfect, 4, 4, 0x48453f5321be096dULL, 0xe6038a0c6dd8dac1ULL},
        PinCase{kFrFcfs, PolicyKind::Open, 4, 4, 0x988faa0198b46179ULL, 0x6e5e1d6e6d29a51fULL, 4},
        PinCase{kParBs, PolicyKind::Open, 4, 4, 0x562aaa3e7db8d0b6ULL, 0xa1c0e5794e9ee822ULL, 4}),
    caseName);

}  // namespace
}  // namespace mb::mc
