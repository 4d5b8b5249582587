#include "mc/trace_audit.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "mc/command_log.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"

namespace mb::mc {
namespace {

using analysis::Diagnostic;
using analysis::DiagnosticEngine;
using analysis::Severity;

// Unique per process: ctest runs every test of this file in its own
// process, so two tests recording the same tag at once must not share (and
// delete) one file.
std::string tmpTracePath(const std::string& tag) {
  return std::string(::testing::TempDir()) + "mbaudit_test_" + tag + "." +
         std::to_string(::getpid()) + ".mbc";
}

// Record a short run of `cfg` and load the resulting command trace; nullopt
// (reported as a test failure) when the trace cannot be read back.
std::optional<CmdTrace> recordTrace(sim::SystemConfig cfg, const std::string& tag,
                                        std::int64_t instrs) {
  const auto path = tmpTracePath(tag);
  cfg.core.maxInstrs = instrs;
  cfg.recordCmdsPath = path;
  const auto workload = sim::WorkloadSpec::spec("429.mcf");
  sim::runSimulation(cfg, workload);
  DiagnosticEngine diags;
  auto trace = readCmdTrace(path, diags);
  EXPECT_TRUE(trace.has_value()) << diags.renderText();
  std::remove(path.c_str());
  return trace;
}

// ---- Clean traces ---------------------------------------------------------

// Every shipped preset must record a trace that the independent auditor
// accepts end to end: protocol, bank state, address round-trip, and the
// energy/count trailer cross-check (0.1% tolerance) all clean. This is the
// acceptance gate for the recorder and auditor agreeing on the protocol.
TEST(TraceAudit, AllShippedPresetsAuditClean) {
  for (const auto& p : sim::shippedPresets()) {
    const auto trace = recordTrace(p.cfg, p.name, 6000);
    ASSERT_TRUE(trace.has_value()) << "preset " << p.name;
    CmdTraceConfig expect =
        sim::cmdTraceConfigFor(p.cfg, sim::WorkloadSpec::spec(""));
    TraceAuditOptions opts;
    opts.expectConfig = &expect;
    DiagnosticEngine diags;
    const auto res = auditCmdTrace(*trace, diags, opts);
    EXPECT_FALSE(diags.hasErrors())
        << "preset " << p.name << ":\n" << diags.renderText();
    EXPECT_EQ(res.commandsRejected, 0) << "preset " << p.name;
    EXPECT_GT(res.eventsAudited, 0) << "preset " << p.name;
    EXPECT_GT(res.activations, 0) << "preset " << p.name;
    // The recomputed total agrees with the live meter totals in the trailer.
    ASSERT_TRUE(trace->trailer.present);
    const double live = trace->trailer.actPre + trace->trailer.rdwr +
                        trace->trailer.io + trace->trailer.staticEnergy;
    EXPECT_LE(std::abs(res.recomputedTotal() - live),
              1e-3 * std::max(std::abs(live), 1.0))
        << "preset " << p.name;
  }
}

TEST(TraceAudit, RecordingDoesNotPerturbTheSimulation) {
  sim::SystemConfig cfg;
  cfg.core.maxInstrs = 30000;
  const auto workload = sim::WorkloadSpec::spec("433.milc");
  const auto plain = sim::runSimulation(cfg, workload);
  const auto path = tmpTracePath("perturb");
  cfg.recordCmdsPath = path;
  const auto recorded = sim::runSimulation(cfg, workload);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(plain.systemIpc, recorded.systemIpc);
  EXPECT_EQ(plain.elapsed, recorded.elapsed);
  EXPECT_EQ(plain.dramReads, recorded.dramReads);
  EXPECT_DOUBLE_EQ(plain.energy.total(), recorded.energy.total());
}

// A recording carries exactly the header mbaudit --geometry expects,
// cmdTraceConfigFor(cfg, workload), also where it differs from the
// single-spec case above: a multithreaded run takes the PHY's channel count,
// and the scaled activation window and the bank hash reach the header.
TEST(TraceAudit, RecordedHeaderIsCmdTraceConfigForTheWorkload) {
  sim::SystemConfig cfg;
  cfg.ubank = {4, 2};
  cfg.scaleActWindowWithRowSize = true;
  cfg.xorBankHash = true;
  cfg.hier.numCores = 8;
  cfg.hier.coresPerCluster = 4;
  cfg.core.maxInstrs = 2000;
  const auto path = tmpTracePath("header");
  cfg.recordCmdsPath = path;
  const auto workload = sim::WorkloadSpec::mt(trace::MtKind::TpcH);
  sim::runSimulation(cfg, workload);
  DiagnosticEngine readDiags;
  const auto trace = readCmdTrace(path, readDiags);
  std::remove(path.c_str());
  ASSERT_TRUE(trace.has_value()) << readDiags.renderText();

  const CmdTraceConfig expect = sim::cmdTraceConfigFor(cfg, workload);
  EXPECT_GT(expect.geom.channels, 1);
  TraceAuditOptions opts;
  opts.expectConfig = &expect;
  DiagnosticEngine diags;
  const auto res = auditCmdTrace(*trace, diags, opts);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderText();
  EXPECT_GT(res.activations, 0);
}

TEST(TraceAudit, ConfigMismatchIsAud021) {
  const auto trace = recordTrace(sim::SystemConfig{}, "cfgmismatch", 4000);
  ASSERT_TRUE(trace.has_value());
  CmdTraceConfig expect = trace->config;
  expect.geom.banksPerRank *= 2;  // deliberately wrong expectation
  TraceAuditOptions opts;
  opts.expectConfig = &expect;
  DiagnosticEngine diags;
  auditCmdTrace(*trace, diags, opts);
  ASSERT_FALSE(diags.diagnostics().empty());
  EXPECT_EQ(diags.diagnostics().front().code, "MB-AUD-021");
}

TEST(TraceAudit, MissingTrailerIsAud022Warning) {
  auto trace = recordTrace(sim::SystemConfig{}, "notrailer", 4000);
  ASSERT_TRUE(trace.has_value());
  trace->trailer = CmdTraceTrailer{};  // as if the run never finalized
  DiagnosticEngine diags;
  auditCmdTrace(*trace, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderText();
  EXPECT_EQ(diags.count(Severity::Warning), 1);
  ASSERT_FALSE(diags.diagnostics().empty());
  EXPECT_EQ(diags.diagnostics().front().code, "MB-AUD-022");
}

// ---- Mutation self-test ---------------------------------------------------
// Each planted single-command defect must surface as its expected MB-AUD
// code FIRST — proving the corresponding check actually fires rather than
// merely that clean traces pass.

class TraceAuditMutation : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    baseline_ = recordTrace(sim::SystemConfig{}, "mutation_base", 20000);
  }
  static void TearDownTestSuite() { baseline_.reset(); }
  void SetUp() override {
    ASSERT_TRUE(baseline_.has_value()) << "baseline trace failed to record";
  }
  static std::optional<CmdTrace> baseline_;
};

std::optional<CmdTrace> TraceAuditMutation::baseline_;

TEST_F(TraceAuditMutation, EveryMutationTripsItsExpectedCodeFirst) {
  for (int k = 0; k < kTraceMutationCount; ++k) {
    const auto m = static_cast<TraceMutation>(k);
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
      CmdTrace mutant = *baseline_;
      ASSERT_TRUE(applyTraceMutation(mutant, m, seed))
          << "no eligible victim for " << traceMutationName(m)
          << " (seed " << seed << ")";
      DiagnosticEngine diags;
      auditCmdTrace(mutant, diags);
      ASSERT_TRUE(diags.hasErrors())
          << traceMutationName(m) << " (seed " << seed << ") audited clean";
      ASSERT_FALSE(diags.diagnostics().empty());
      EXPECT_EQ(diags.diagnostics().front().code, traceMutationExpectedCode(m))
          << traceMutationName(m) << " (seed " << seed << "):\n"
          << diags.diagnostics().front().text();
    }
  }
}

TEST_F(TraceAuditMutation, CleanBaselineStaysClean) {
  DiagnosticEngine diags;
  const auto res = auditCmdTrace(*baseline_, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderText();
  EXPECT_EQ(res.commandsRejected, 0);
}

TEST(TraceAuditMutation2, NameTableRoundTrips) {
  for (int k = 0; k < kTraceMutationCount; ++k) {
    const auto m = static_cast<TraceMutation>(k);
    const auto back = traceMutationFromName(traceMutationName(m));
    ASSERT_TRUE(back.has_value()) << traceMutationName(m);
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(traceMutationFromName("no-such-mutation").has_value());
}

// ---- The protocol table ---------------------------------------------------
// Hand-built event sequences on a small geometry, each mapped to the code of
// the finding one of its events must raise, or to clean. They run through
// the streaming entry point the controller feeds live, so every rule the
// offline audit enforces is pinned on exactly the events a run commits.

CmdTraceConfig tableConfig(int channels = 1) {
  CmdTraceConfig c;
  c.geom.channels = channels;
  c.geom.ranksPerChannel = 2;
  c.geom.banksPerRank = 2;
  c.geom.ubank = {2, 2};
  c.geom.capacityBytes = 4 * kGiB;
  c.timing = dram::TimingParams::tsi();
  c.timing.tRTRS = ns(2);  // TSI has none; a rank-switch gap makes 015 reachable
  c.interleaveBaseBit = 6 + exactLog2(c.geom.linesPerUbankRow());
  return c;
}

core::DramAddress addr(int rank, int bank, int ubank, std::int64_t row, int channel = 0) {
  core::DramAddress da;
  da.channel = channel;
  da.rank = rank;
  da.bank = bank;
  da.ubank = ubank;
  da.row = row;
  return da;
}

/// A committed command as the controller reports it: CAS bursts derive
/// from tAA/tBURST, as the device model charges them.
CmdEvent cmd(DramCommand c, const core::DramAddress& da, Tick at) {
  const auto t = tableConfig().timing;
  if (c != DramCommand::Read && c != DramCommand::Write) return commandEvent(c, da, at, -1, -1);
  return commandEvent(c, da, at, at + t.tAA, at + t.tAA + t.tBURST);
}
CmdEvent act(const core::DramAddress& da, Tick at) { return cmd(DramCommand::Act, da, at); }
CmdEvent pre(const core::DramAddress& da, Tick at) { return cmd(DramCommand::Pre, da, at); }
CmdEvent rd(const core::DramAddress& da, Tick at) { return cmd(DramCommand::Read, da, at); }
CmdEvent wr(const core::DramAddress& da, Tick at) { return cmd(DramCommand::Write, da, at); }

struct Sequence {
  std::string name;  // the test name of its table row
  std::vector<CmdEvent> events;
  const char* code;  // the rejected event's finding; nullptr: the sequence is clean
  /// Index of the rejected event (-1: the last). Every other event must
  /// pass: events after a rejection see the shadow state it left unchanged.
  int rejected = -1;
  /// Context the finding must carry, beyond its code.
  std::vector<std::pair<std::string, std::string>> context = {};
};

void PrintTo(const Sequence& seq, std::ostream* os) { *os << seq.name; }

/// `pairs` ACT/PRE pairs round-robin over four μbanks of rank 0, one tRC
/// apart: a long run that makes the rank's ACT window prune many times.
std::vector<CmdEvent> actPrePairs(int pairs, Tick& at) {
  const auto t = tableConfig().timing;
  std::vector<CmdEvent> evs;
  for (int i = 0; i < pairs; ++i) {
    const auto a = addr(0, i % 2, (i / 2) % 2, 1);
    evs.push_back(act(a, at));
    evs.push_back(pre(a, at + t.tRAS));
    at += t.tRC();
  }
  return evs;
}

/// Warm-up, then four fast ACTs on rank 0, a fifth inside the first one's
/// tFAW window, and the same ACT again exactly at its end: the tFAW probe
/// after the window has pruned many times.
std::vector<CmdEvent> fawProbeAfterLongRun() {
  const auto t = tableConfig().timing;
  Tick at = 0;
  auto evs = actPrePairs(200, at);
  const Tick base = at + t.tFAW;  // clear of the warm-up window
  for (int u = 0; u < 4; ++u) evs.push_back(act(addr(0, 0, u, 1), base + u * t.tRRD));
  evs.push_back(act(addr(0, 1, 0, 1), base + 4 * t.tRRD));
  evs.push_back(act(addr(0, 1, 0, 1), base + t.tFAW));
  return evs;
}

std::vector<Sequence> protocolTable() {
  const auto t = tableConfig().timing;
  const auto a = addr(0, 0, 0, 5);
  const auto b = addr(0, 1, 0, 7);
  const Tick wrEnd = t.tRCD + t.tAA + t.tBURST;
  const Tick lateCas = t.tRAS - t.tRTP + 1;  // late enough that tRTP binds, not tRAS
  std::vector<CmdEvent> fourActs;
  for (int u = 0; u < 4; ++u) fourActs.push_back(act(addr(0, 0, u, 1), u * t.tRRD));
  const auto withFifth = [&](Tick at) {
    auto evs = fourActs;
    evs.push_back(act(addr(0, 1, 0, 1), at));
    return evs;
  };
  Tick longRunEnd = 0;
  const auto fawProbe = fawProbeAfterLongRun();
  return {
      // Bank-state and Table-I rules, one sequence per rule.
      {"LegalActRdPreAct",
       {act(a, 0), rd(a, t.tRCD), pre(a, t.tRAS), act(a, t.tRAS + t.tRP)}, nullptr},
      {"CommandOutOfOrder", {act(a, ns(100)), act(addr(1, 0, 0, 1), ns(50))},
       "MB-AUD-001"},
      {"SecondCommandInsideTcmd",
       {act(addr(0, 0, 0, 1), 0), act(addr(1, 0, 0, 1), t.tCMD - 1)},
       "MB-AUD-002"},
      {"ActToAnOpenRow", {act(a, 0), act(addr(0, 0, 0, 6), t.tRC())}, "MB-AUD-003"},
      {"ActBeforeTrp", {act(a, 0), pre(a, t.tRAS), act(a, t.tRAS + t.tRP - 1)},
       "MB-AUD-004"},
      {"ActBeforeTrrd", {act(addr(0, 0, 0, 1), 0), act(addr(0, 1, 0, 1), t.tRRD - 1)},
       "MB-AUD-005"},
      {"OtherRanksIgnoreTrrd", {act(addr(0, 0, 0, 1), 0), act(addr(1, 0, 0, 1), t.tCMD)},
       nullptr},
      {"FifthActInsideTfaw", withFifth(4 * t.tRRD), "MB-AUD-006"},
      {"FifthActAtTfaw", withFifth(t.tFAW), nullptr},
      {"PreToAPrechargedBank", {pre(a, 0)}, "MB-AUD-007"},
      {"PreBeforeTras", {act(a, 0), pre(a, t.tRAS - 1)}, "MB-AUD-008"},
      {"PreBeforeTrtp", {act(a, 0), rd(a, lateCas), pre(a, lateCas + t.tRTP - 1)},
       "MB-AUD-009"},
      {"PreBeforeTwrThenAtTwr",
       {act(a, 0), wr(a, t.tRCD), pre(a, wrEnd + t.tWR - 1), pre(a, wrEnd + t.tWR)},
       "MB-AUD-010", 2},
      {"CasToARowThatIsNotOpen", {act(a, 0), rd(addr(0, 0, 0, 6), t.tRCD)},
       "MB-AUD-011"},
      {"CasBeforeTrcd", {act(a, 0), rd(a, t.tRCD - 1)}, "MB-AUD-012"},
      // The second bank's CAS comes first against its own tRCD.
      {"BackToBackCasToASecondBank",
       {act(a, 0), act(b, t.tRRD), rd(a, t.tRCD), rd(b, t.tRCD + t.tCCD - 1)}, "MB-AUD-012"},
      {"CasBeforeTccd", {act(a, 0), rd(a, t.tRCD), rd(a, t.tRCD + t.tCCD - 1)},
       "MB-AUD-013"},
      {"ReadBeforeTwtr",
       {act(a, 0), act(b, t.tRRD), wr(a, t.tRCD), rd(b, wrEnd + t.tWTR - 1)}, "MB-AUD-014"},
      {"RankSwitchInsideTrtrs",
       {act(a, 0), act(addr(1, 0, 0, 5), t.tCMD), rd(a, t.tRCD),
        rd(addr(1, 0, 0, 5), t.tRCD + t.tCCD)},
       "MB-AUD-015"},
      // Structure: a CAS whose burst does not derive from tAA/tBURST.
      {"TamperedCasBurst",
       {act(a, 0), commandEvent(DramCommand::Read, a, t.tRCD, t.tRCD + t.tAA,
                                t.tRCD + t.tAA + t.tBURST + 1)},
       "MB-AUD-016"},
      // Ids outside the geometry are findings, not aliased shadow entries.
      {"UbankIdPastTheGeometry", {act(addr(0, 0, 4, 1), 0)}, "MB-AUD-018"},
      {"BankIdPastTheGeometry", {act(addr(0, 2, 0, 1), 0)}, "MB-AUD-018"},
      {"RankIdPastTheGeometry", {act(addr(2, 0, 0, 1), 0)}, "MB-AUD-018"},
      {"NegativeChannel", {act(addr(0, 0, 0, 1, -1), 0)}, "MB-AUD-018"},
      // Refreshes and oracle precharges close rows without a bus slot.
      {"AllBankRefreshClosesEveryRow",
       {act(a, 0), act(b, t.tRRD), refreshEvent(0, 0, -1, t.tRAS),
        act(addr(0, 0, 0, 6), t.tRC()), act(addr(0, 1, 0, 8), t.tRC() + t.tRRD)},
       nullptr},
      {"PerBankRefreshLeavesOtherBanksOpen",
       {act(a, 0), refreshEvent(0, 0, 1, t.tRAS), act(addr(0, 0, 0, 6), t.tRC())},
       "MB-AUD-003"},
      {"OraclePrechargeClosesTheRow",
       {act(a, 0), rd(a, t.tRCD), oraclePreEvent(a, t.tRAS), act(addr(0, 0, 0, 6), t.tRC())},
       nullptr},
      // Long runs: the pruned tFAW window keeps every verdict.
      {"ThousandActPrePairs", actPrePairs(1000, longRunEnd), nullptr},
      {"TfawProbeAfterALongRun", fawProbe, "MB-AUD-006",
       static_cast<int>(fawProbe.size()) - 2, {{"rank.acts_in_faw_window", "4"}}},
  };
}

/// Run `seq` through a fresh channel-0 auditor collecting into `engine`;
/// every event but the rejected one must pass, and that one passes iff the
/// sequence is clean.
void runCollecting(const Sequence& seq, DiagnosticEngine& engine) {
  const auto n = static_cast<int>(seq.events.size());
  const int rejected = seq.rejected < 0 ? n - 1 : seq.rejected;
  ASSERT_LT(rejected, n) << seq.name;
  TraceAuditor auditor(tableConfig(), 0);
  auditor.diagnostics = &engine;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(auditor.audit(seq.events[static_cast<std::size_t>(i)]),
              i != rejected || seq.code == nullptr)
        << "event " << i << "\n" << engine.renderText();
  }
}

std::string ctx(const Diagnostic& d, const std::string& key) {
  for (const auto& [k, v] : d.context)
    if (k == key) return v;
  return "<missing " + key + ">";
}

class ProtocolTableRow : public ::testing::TestWithParam<Sequence> {};

TEST_P(ProtocolTableRow, RaisesItsFirstCodeOrNone) {
  const Sequence& seq = GetParam();
  DiagnosticEngine engine;
  runCollecting(seq, engine);
  if (seq.code == nullptr) {
    EXPECT_TRUE(engine.empty()) << engine.renderText();
    return;
  }
  ASSERT_EQ(engine.diagnostics().size(), 1u) << engine.renderText();
  EXPECT_TRUE(engine.hasErrors());
  const Diagnostic& d = engine.diagnostics().front();
  EXPECT_EQ(d.code, seq.code) << d.text();
  for (const auto& [key, value] : seq.context) EXPECT_EQ(ctx(d, key), value) << key;
}

INSTANTIATE_TEST_SUITE_P(ProtocolTable, ProtocolTableRow,
                         ::testing::ValuesIn(protocolTable()),
                         [](const ::testing::TestParamInfo<Sequence>& info) {
                           return info.param.name;
                         });

// Without a diagnostics sink the first violation is fatal.
TEST(ProtocolTableDeathTest, WithoutASinkAViolationAborts) {
  const auto a = addr(0, 0, 0, 5);
  TraceAuditor auditor(tableConfig(), 0);
  ASSERT_TRUE(auditor.audit(act(a, 0)));
  EXPECT_DEATH(auditor.audit(rd(a, 0)), "protocol violation");
}

TEST(ProtocolTable, FindingCarriesEventConstraintAndFullShadowHistory) {
  const auto t = tableConfig().timing;
  const auto a = addr(0, 1, 1, 5);
  DiagnosticEngine engine;
  runCollecting({"tRCD", {act(a, 0), rd(a, t.tRCD - 1)}, "MB-AUD-012"}, engine);
  ASSERT_EQ(engine.diagnostics().size(), 1u);
  const Diagnostic& d = engine.diagnostics().front();
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(ctx(d, "event"), "RD");
  EXPECT_EQ(ctx(d, "address"), a.toString());
  EXPECT_EQ(ctx(d, "at_ps"), std::to_string(t.tRCD - 1));
  EXPECT_EQ(ctx(d, "constraint"), "tRCD (ACT->CAS)");
  EXPECT_EQ(ctx(d, "bound_ps"), std::to_string(t.tRCD));
  EXPECT_EQ(ctx(d, "earliest_legal_ps"), std::to_string(t.tRCD));
  // μbank, rank and channel history: the ACT at t=0 opened row 5.
  EXPECT_EQ(ctx(d, "ubank.open_row"), "5");
  EXPECT_EQ(ctx(d, "ubank.last_act_ps"), "0");
  EXPECT_EQ(ctx(d, "ubank.last_pre_ps"), "-1");
  EXPECT_EQ(ctx(d, "ubank.last_read_cas_ps"), "-1");
  EXPECT_EQ(ctx(d, "ubank.last_write_data_end_ps"), "-1");
  EXPECT_EQ(ctx(d, "rank.last_act_ps"), "0");
  EXPECT_EQ(ctx(d, "rank.acts_in_faw_window"), "1");
  EXPECT_EQ(ctx(d, "rank.last_write_data_end_ps"), "-1");
  EXPECT_EQ(ctx(d, "channel.last_cmd_ps"), "0");
  EXPECT_EQ(ctx(d, "channel.last_cas_ps"), "-1");
  EXPECT_EQ(ctx(d, "channel.last_data_end_ps"), "-1");
  EXPECT_EQ(ctx(d, "channel.last_cas_rank"), "-1");
  // A live finding has no trace position to echo.
  EXPECT_EQ(ctx(d, "event_index"), "<missing event_index>");
}

TEST(ProtocolTable, TextRenderingNamesTheViolation) {
  const auto t = tableConfig().timing;
  const auto a = addr(0, 0, 0, 5);
  DiagnosticEngine engine;
  runCollecting({"tRAS", {act(a, 0), pre(a, t.tRAS - 1)}, "MB-AUD-008"}, engine);
  ASSERT_EQ(engine.diagnostics().size(), 1u);
  const std::string text = engine.diagnostics().front().text();
  EXPECT_NE(text.find("error MB-AUD-008"), std::string::npos) << text;
  EXPECT_NE(text.find("command-trace audit violation: tRAS (ACT->PRE)"), std::string::npos);
  EXPECT_NE(text.find("event: PRE"), std::string::npos);
  EXPECT_NE(text.find("ubank.last_act_ps: 0"), std::string::npos);
}

TEST(ProtocolTable, JsonRenderingIsStructured) {
  const auto t = tableConfig().timing;
  const auto a = addr(0, 0, 0, 5);
  DiagnosticEngine engine;
  runCollecting({"tRCD", {act(a, 0), rd(a, t.tRCD - 1)}, "MB-AUD-012"}, engine);
  ASSERT_EQ(engine.diagnostics().size(), 1u);
  const std::string j = engine.diagnostics().front().json();
  EXPECT_NE(j.find("\"code\":\"MB-AUD-012\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(j.find("\"event\":\"RD\""), std::string::npos);
  EXPECT_NE(j.find("\"constraint\":\"tRCD (ACT->CAS)\""), std::string::npos);
  EXPECT_NE(j.find("\"ubank.open_row\":\"5\""), std::string::npos);
}

// The checking state survives a snapshot: a restored auditor writes the
// same bytes and still knows the history the next verdict depends on. The
// bytes are pinned against a build that predates the auditor, for entries
// that differ in every key field.
TEST(ProtocolTable, SnapshotRoundTripKeepsBytesAndVerdicts) {
  const auto t = tableConfig().timing;
  const auto cfg = tableConfig(2);
  const auto a = addr(1, 1, 3, 9, 1);
  TraceAuditor original(cfg, 1);
  ASSERT_TRUE(original.audit(act(addr(0, 0, 0, 4, 1), 0)));
  ASSERT_TRUE(original.audit(act(a, t.tRRD)));
  ASSERT_TRUE(original.audit(wr(a, t.tRRD + t.tRCD)));
  ASSERT_TRUE(original.audit(pre(a, t.tRRD + t.tRCD + t.tAA + t.tBURST + t.tWR)));
  ckpt::Writer w;
  original.save(w);
  EXPECT_EQ(ckpt::fnv1a64(w.str()), 0xcfdad050d1cb49b0ull);

  TraceAuditor restored(cfg, 1);
  ckpt::Reader r(w.str());
  restored.load(r);
  ASSERT_TRUE(r.atEnd());
  ckpt::Writer again;
  restored.save(again);
  EXPECT_EQ(again.str(), w.str());

  DiagnosticEngine engine;
  restored.diagnostics = &engine;
  const Tick preAt = t.tRRD + t.tRCD + t.tAA + t.tBURST + t.tWR;
  EXPECT_FALSE(restored.audit(act(a, preAt + t.tRP - 1)));
  ASSERT_EQ(engine.diagnostics().size(), 1u);
  EXPECT_EQ(engine.diagnostics().front().code, "MB-AUD-004");

  // Another channel's state is a foreign snapshot.
  TraceAuditor other(cfg, 0);
  ckpt::Reader foreign(w.str());
  other.load(foreign);
  EXPECT_FALSE(foreign.ok());
}

}  // namespace
}  // namespace mb::mc
