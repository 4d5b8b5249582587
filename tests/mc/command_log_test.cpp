#include "mc/command_log.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace mb::mc {
namespace {

std::string tmpPath(const char* tag) {
  return std::string(::testing::TempDir()) + "mbcmd_test_" + tag + ".mbc";
}

CmdTraceConfig testConfig() {
  CmdTraceConfig cfg;
  cfg.geom.channels = 2;
  cfg.geom.ranksPerChannel = 2;
  cfg.geom.banksPerRank = 4;
  cfg.geom.ubank = {2, 2};
  cfg.geom.capacityBytes = 4 * kGiB;
  cfg.timing = dram::TimingParams::tsi();
  cfg.interleaveBaseBit = 7;
  cfg.xorBankHash = true;
  return cfg;
}

core::DramAddress addr(int channel, int rank, int bank, int ubank,
                       std::int64_t row, std::int64_t column) {
  core::DramAddress da;
  da.channel = channel;
  da.rank = rank;
  da.bank = bank;
  da.ubank = ubank;
  da.row = row;
  da.column = column;
  return da;
}

long fileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

void truncateTo(const std::string& path, long size) {
  ASSERT_EQ(0, truncate(path.c_str(), size));
}

// ---- Round trip -----------------------------------------------------------

TEST(CommandLog, ConfigAndTrailerRoundTrip) {
  const auto path = tmpPath("cfg_roundtrip");
  const auto cfg = testConfig();
  CmdTraceTrailer trailer;
  trailer.present = true;
  trailer.elapsed = 123456789;
  trailer.actPre = 1.5e6;
  trailer.rdwr = 2.25e6;
  trailer.io = 3.125e6;
  trailer.staticEnergy = 4.0625e6;
  trailer.activations = 42;
  trailer.casOps = 97;
  trailer.refreshes = 7;
  {
    CommandLogWriter w(path, cfg);
    w.onEvent(commandEvent(DramCommand::Act, addr(1, 0, 3, 2, 11, -1), 100, -1, -1));
    w.writeTrailer(trailer);
    EXPECT_EQ(w.eventsWritten(), 1);
  }
  analysis::DiagnosticEngine diags;
  const auto trace = readCmdTrace(path, diags);
  ASSERT_TRUE(trace.has_value()) << diags.renderText();
  EXPECT_TRUE(diags.empty());

  const auto& c = trace->config;
  EXPECT_EQ(c.geom.channels, cfg.geom.channels);
  EXPECT_EQ(c.geom.ranksPerChannel, cfg.geom.ranksPerChannel);
  EXPECT_EQ(c.geom.banksPerRank, cfg.geom.banksPerRank);
  EXPECT_EQ(c.geom.ubank.nW, cfg.geom.ubank.nW);
  EXPECT_EQ(c.geom.ubank.nB, cfg.geom.ubank.nB);
  EXPECT_EQ(c.geom.rowBytes, cfg.geom.rowBytes);
  EXPECT_EQ(c.geom.capacityBytes, cfg.geom.capacityBytes);
  EXPECT_EQ(c.geom.lineBytes, cfg.geom.lineBytes);
  EXPECT_EQ(c.interleaveBaseBit, cfg.interleaveBaseBit);
  EXPECT_EQ(c.xorBankHash, cfg.xorBankHash);
  EXPECT_EQ(c.timing.tRCD, cfg.timing.tRCD);
  EXPECT_EQ(c.timing.tFAW, cfg.timing.tFAW);
  EXPECT_EQ(c.timing.tRFCpb, cfg.timing.tRFCpb);
  EXPECT_EQ(c.energy.fullRowBytes, cfg.energy.fullRowBytes);
  EXPECT_DOUBLE_EQ(c.energy.actPreFullRow, cfg.energy.actPreFullRow);
  EXPECT_DOUBLE_EQ(c.energy.refreshPerRank, cfg.energy.refreshPerRank);

  ASSERT_TRUE(trace->trailer.present);
  EXPECT_EQ(trace->trailer.elapsed, trailer.elapsed);
  EXPECT_DOUBLE_EQ(trace->trailer.actPre, trailer.actPre);
  EXPECT_DOUBLE_EQ(trace->trailer.rdwr, trailer.rdwr);
  EXPECT_DOUBLE_EQ(trace->trailer.io, trailer.io);
  EXPECT_DOUBLE_EQ(trace->trailer.staticEnergy, trailer.staticEnergy);
  EXPECT_EQ(trace->trailer.activations, trailer.activations);
  EXPECT_EQ(trace->trailer.casOps, trailer.casOps);
  EXPECT_EQ(trace->trailer.refreshes, trailer.refreshes);
  std::remove(path.c_str());
}

// Property: any event stream the writer can emit survives the disk round
// trip field-for-field, including the pseudo-events (refresh with bank -1,
// oracle PRE) and negative "not meaningful" sentinels.
TEST(CommandLog, RandomEventStreamRoundTripsExactly) {
  const auto path = tmpPath("event_roundtrip");
  const auto cfg = testConfig();
  Rng rng(0xc0ffee);
  CommandLogRecorder expected(cfg);  // in-memory twin of the written stream
  {
    CommandLogWriter w(path, cfg);
    Tick at = 0;
    for (int i = 0; i < 5000; ++i) {
      at += 1 + static_cast<Tick>(rng.nextBounded(5000));
      const auto da = addr(static_cast<int>(rng.nextBounded(2)),
                           static_cast<int>(rng.nextBounded(2)),
                           static_cast<int>(rng.nextBounded(4)),
                           static_cast<int>(rng.nextBounded(4)),
                           static_cast<std::int64_t>(rng.nextBounded(1 << 20)),
                           static_cast<std::int64_t>(rng.nextBounded(128)));
      CmdEvent ev;
      switch (rng.nextBounded(6)) {
        case 0:
          ev = commandEvent(DramCommand::Act, da, at, -1, -1);
          break;
        case 1:
          ev = commandEvent(DramCommand::Pre, da, at, -1, -1);
          break;
        case 2:
          ev = commandEvent(DramCommand::Read, da, at, at + 100, at + 200);
          break;
        case 3:
          ev = commandEvent(DramCommand::Write, da, at, at + 100, at + 200);
          break;
        case 4:
          ev = refreshEvent(da.channel, da.rank, rng.nextBounded(2) == 0 ? -1 : da.bank, at);
          break;
        case 5:
          ev = oraclePreEvent(da, at);
          break;
      }
      w.onEvent(ev);
      expected.onEvent(ev);
    }
    EXPECT_EQ(w.eventsWritten(), 5000);
  }
  analysis::DiagnosticEngine diags;
  const auto trace = readCmdTrace(path, diags);
  ASSERT_TRUE(trace.has_value()) << diags.renderText();
  const auto& want = expected.trace().events;
  ASSERT_EQ(trace->events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& a = trace->events[i];
    const auto& b = want[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    ASSERT_EQ(a.channel, b.channel) << "event " << i;
    ASSERT_EQ(a.rank, b.rank) << "event " << i;
    ASSERT_EQ(a.bank, b.bank) << "event " << i;
    ASSERT_EQ(a.ubank, b.ubank) << "event " << i;
    ASSERT_EQ(a.row, b.row) << "event " << i;
    ASSERT_EQ(a.column, b.column) << "event " << i;
    ASSERT_EQ(a.at, b.at) << "event " << i;
    ASSERT_EQ(a.dataStart, b.dataStart) << "event " << i;
    ASSERT_EQ(a.dataEnd, b.dataEnd) << "event " << i;
  }
  // A writer closed without a trailer yields trailer.present == false.
  EXPECT_FALSE(trace->trailer.present);
  std::remove(path.c_str());
}

// ---- Malformed input ------------------------------------------------------
// Every malformed-input class maps to its stable MB-TRC code, reported
// through the engine with nullopt returned — never an abort.

std::string firstCode(const std::string& path) {
  analysis::DiagnosticEngine diags;
  const auto trace = readCmdTrace(path, diags);
  EXPECT_FALSE(trace.has_value());
  if (diags.diagnostics().empty()) return "<no diagnostic>";
  return diags.diagnostics().front().code;
}

// Writes a minimal valid one-event trace and returns its path.
std::string writeValidTrace(const char* tag, bool withTrailer = true) {
  const auto path = tmpPath(tag);
  CommandLogWriter w(path, testConfig());
  w.onEvent(commandEvent(DramCommand::Act, addr(0, 0, 0, 0, 1, -1), 10, -1, -1));
  if (withTrailer) w.writeTrailer(CmdTraceTrailer{});
  w.close();
  return path;
}

TEST(CommandLogMalformed, MissingFileIsTrc006) {
  EXPECT_EQ(firstCode("/nonexistent/cmds.mbc"), "MB-TRC-006");
}

TEST(CommandLogMalformed, BadMagicIsTrc007) {
  const auto path = tmpPath("badmagic");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("MBTRACE1garbage-not-a-command-trace", f);  // wrong family
  std::fclose(f);
  EXPECT_EQ(firstCode(path), "MB-TRC-007");
  std::remove(path.c_str());
}

TEST(CommandLogMalformed, UnsupportedVersionIsTrc008) {
  const auto path = tmpPath("badversion");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("MBCMDT1\0", 1, 8, f);
  const std::uint32_t version = 42, reserved = 0;
  std::fwrite(&version, sizeof(version), 1, f);
  std::fwrite(&reserved, sizeof(reserved), 1, f);
  std::fclose(f);
  EXPECT_EQ(firstCode(path), "MB-TRC-008");
  std::remove(path.c_str());
}

TEST(CommandLogMalformed, TruncatedConfigHeaderIsTrc009) {
  const auto path = writeValidTrace("truncconfig");
  truncateTo(path, 16 + 20);  // magic+version+reserved, then partial config
  EXPECT_EQ(firstCode(path), "MB-TRC-009");
  std::remove(path.c_str());
}

TEST(CommandLogMalformed, TruncatedEventIsTrc009) {
  const auto path = writeValidTrace("truncevent", /*withTrailer=*/false);
  truncateTo(path, fileSize(path) - 1);
  EXPECT_EQ(firstCode(path), "MB-TRC-009");
  std::remove(path.c_str());
}

TEST(CommandLogMalformed, TruncatedTrailerIsTrc009) {
  const auto path = writeValidTrace("trunctrailer");
  truncateTo(path, fileSize(path) - 1);
  EXPECT_EQ(firstCode(path), "MB-TRC-009");
  std::remove(path.c_str());
}

TEST(CommandLogMalformed, HeaderOnlyFileIsTrc010) {
  const auto path = tmpPath("headeronly");
  {
    CommandLogWriter w(path, testConfig());  // no events, no trailer
  }
  EXPECT_EQ(firstCode(path), "MB-TRC-010");
  std::remove(path.c_str());
}

TEST(CommandLogMalformed, UnknownEventKindIsTrc011) {
  const auto path = writeValidTrace("badkind", /*withTrailer=*/false);
  // Corrupt the one event's kind byte. An event is 49 bytes on disk
  // (u8 kind + 4 x i16 + 5 x i64) and is the last thing in this file.
  const long size = fileSize(path);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, size - 49, SEEK_SET);
  std::fputc(0x7f, f);
  std::fclose(f);
  EXPECT_EQ(firstCode(path), "MB-TRC-011");
  std::remove(path.c_str());
}

TEST(CommandLogMalformed, TrailingDataAfterTrailerIsTrc012) {
  const auto path = writeValidTrace("trailing");
  std::FILE* f = std::fopen(path.c_str(), "ab");
  std::fputc('x', f);
  std::fclose(f);
  EXPECT_EQ(firstCode(path), "MB-TRC-012");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mb::mc
