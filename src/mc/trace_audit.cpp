#include "mc/trace_audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/check.hpp"

namespace mb::mc {

using analysis::Diagnostic;
using analysis::DiagnosticEngine;
using analysis::Severity;

namespace {

bool isCas(CmdEventKind k) {
  return k == CmdEventKind::Read || k == CmdEventKind::Write;
}
bool isAddressed(CmdEventKind k) {
  return k == CmdEventKind::Act || k == CmdEventKind::Pre || isCas(k) ||
         k == CmdEventKind::OraclePre;
}
/// Commands that occupy a command-bus slot (refreshes and the oracle's
/// retroactive closes do not).
bool isTimed(CmdEventKind k) {
  return k == CmdEventKind::Act || k == CmdEventKind::Pre || isCas(k);
}

core::DramAddress addrOf(const CmdEvent& ev) {
  core::DramAddress da;
  da.channel = ev.channel;
  da.rank = ev.rank;
  da.bank = ev.bank;
  da.ubank = ev.ubank;
  da.row = ev.row;
  da.column = ev.column;
  return da;
}

int maxBaseBit(const dram::Geometry& g) { return 6 + exactLog2(g.linesPerUbankRow()); }

bool baseBitInRange(const CmdTraceConfig& cfg) {
  return cfg.interleaveBaseBit >= 6 && cfg.interleaveBaseBit <= maxBaseBit(cfg.geom);
}

// Snapshot keys: saved shadow entries are keyed by packed structure ids,
// [channel:12][rank:8][bank:12][μbank:12] from the MSB down (ranks by the
// top two fields). Every supported geometry fits the fields, so the dense
// channel-local index order is ascending key order.
constexpr int kRankBits = 8;
constexpr int kIdBits = 12;  // bank and μbank fields

std::int64_t rankKey(int channel, int rank) {
  return std::int64_t{channel} << kRankBits | rank;
}
std::int64_t ubankKey(int channel, int rank, int bank, int ubank) {
  return (rankKey(channel, rank) << kIdBits | bank) << kIdBits | ubank;
}
int keyField(std::int64_t key, int shift, int bits) {
  return static_cast<int>(key >> shift & ((std::int64_t{1} << bits) - 1));
}

}  // namespace

// ---- The streaming auditor -------------------------------------------------

TraceAuditor::TraceAuditor(const CmdTraceConfig& config, int channel)
    : cfg_(config),
      channel_(channel),
      map_(config.geom, config.interleaveBaseBit, config.xorBankHash) {
  const auto& g = cfg_.geom;
  MB_CHECK(g.valid() && baseBitInRange(cfg_));
  MB_CHECK(channel >= 0 && channel < g.channels);
  ubanks_.resize(static_cast<std::size_t>(g.ranksPerChannel) *
                 static_cast<std::size_t>(g.banksPerRank) *
                 static_cast<std::size_t>(g.ubanksPerBank()));
  ranks_.resize(static_cast<std::size_t>(g.ranksPerChannel));
}

bool TraceAuditor::reject(Diagnostic d) {
  if (diagnostics != nullptr) {
    diagnostics->report(std::move(d));
    return false;
  }
  std::fprintf(stderr, "%s\n", d.text().c_str());
  MB_CHECK(false && "DRAM protocol violation");
  return false;
}

bool TraceAuditor::checkBounds(const CmdEvent& ev, std::int64_t eventIndex) {
  const auto& g = cfg_.geom;
  const char* field = nullptr;
  std::int64_t value = 0;
  std::int64_t limit = 0;
  const auto bad = [&](const char* f, std::int64_t v, std::int64_t l) {
    field = f;
    value = v;
    limit = l;
  };
  if (ev.channel < 0 || ev.channel >= g.channels) {
    bad("channel", ev.channel, g.channels);
  } else if (ev.rank < 0 || ev.rank >= g.ranksPerChannel) {
    bad("rank", ev.rank, g.ranksPerChannel);
  } else if (ev.kind == CmdEventKind::Refresh) {
    // bank -1 denotes an all-bank refresh; row/column/ubank are unused.
    if (ev.bank < -1 || ev.bank >= g.banksPerRank) bad("bank", ev.bank, g.banksPerRank);
  } else if (ev.bank < 0 || ev.bank >= g.banksPerRank) {
    bad("bank", ev.bank, g.banksPerRank);
  } else if (ev.ubank < 0 || ev.ubank >= g.ubanksPerBank()) {
    bad("ubank", ev.ubank, g.ubanksPerBank());
  } else if (ev.row < 0) {
    // The row index is the unbounded MSB remainder of the physical address:
    // workloads deliberately place private slices above the nominal
    // capacity (trace placement uses 8 GiB strides), so only negativity is
    // illegal. Column bits, by contrast, are masked by the address map and
    // can never reach linesPerUbankRow.
    bad("row", ev.row, -1);
  } else if (ev.column < 0 || ev.column >= g.linesPerUbankRow()) {
    bad("column", ev.column, g.linesPerUbankRow());
  }
  if (field == nullptr) {
    MB_CHECK_MSG(ev.channel == channel_, "channel %d event fed to channel %d's auditor",
                 ev.channel, channel_);
    return true;
  }
  Diagnostic d("MB-AUD-018", Severity::Error,
               "command-trace audit violation: address field out of bounds");
  if (eventIndex >= 0) d.with("event_index", eventIndex);
  d.with("event", cmdEventKindName(ev.kind))
      .with("field", field)
      .with("value", value)
      .with("limit", limit)
      .with("address", addrOf(ev).toString())
      .with("at_ps", ev.at);
  return reject(std::move(d));
}

// One event: all structure + protocol checks, bounds first (every later
// check indexes the shadow state by the event's coordinates), then
// out-of-order, the structural checks, the bus slot and the per-kind rules,
// so an injected defect surfaces as the most specific code.
bool TraceAuditor::audit(const CmdEvent& ev, std::int64_t i) {
  const auto& t = cfg_.timing;
  const bool timed = isTimed(ev.kind);
  if (timed) ++commands_;
  if (!checkBounds(ev, i)) return false;
  if (timed) {
    ub(ev).seen = true;
    rk(ev).seen = true;
  }

  if (timed && ev.at < lastCmdAt_)
    return fail("MB-AUD-001", "command recorded out of order", ev, i, -1, lastCmdAt_);

  if (isAddressed(ev.kind)) {
    const core::DramAddress da = addrOf(ev);
    const core::DramAddress back = map_.decompose(map_.compose(da));
    if (!(back == da)) {
      Diagnostic d("MB-AUD-017", Severity::Error,
                   "command-trace audit violation: address map round-trip "
                   "mismatch");
      if (i >= 0) d.with("event_index", i);
      d.with("event", cmdEventKindName(ev.kind))
          .with("address", da.toString())
          .with("round_trip", back.toString())
          .with("interleave_base_bit", static_cast<std::int64_t>(cfg_.interleaveBaseBit));
      return reject(std::move(d));
    }
  }

  if (isCas(ev.kind)) {
    const Tick wantStart = ev.at + t.tAA;
    const Tick wantEnd = wantStart + t.tBURST;
    if (ev.dataStart != wantStart || ev.dataEnd != wantEnd) {
      Diagnostic d("MB-AUD-016", Severity::Error,
                   "command-trace audit violation: CAS burst bounds do not "
                   "derive from tAA/tBURST");
      if (i >= 0) d.with("event_index", i);
      d.with("event", cmdEventKindName(ev.kind))
          .with("address", addrOf(ev).toString())
          .with("at_ps", ev.at)
          .with("data_start_ps", ev.dataStart)
          .with("data_end_ps", ev.dataEnd)
          .with("expected_start_ps", wantStart)
          .with("expected_end_ps", wantEnd);
      return reject(std::move(d));
    }
  }

  if (timed && lastCmdAt_ >= 0 && ev.at < lastCmdAt_ + t.tCMD)
    return fail("MB-AUD-002", "command bus slot (tCMD)", ev, i, t.tCMD, lastCmdAt_ + t.tCMD);

  switch (ev.kind) {
    case CmdEventKind::Act: {
      const auto& u = ub(ev);
      const auto& r = rk(ev);
      if (u.openRow >= 0) return fail("MB-AUD-003", "ACT to a bank with an open row", ev, i);
      if (u.lastPreAt >= 0 && ev.at < u.lastPreAt + t.tRP)
        return fail("MB-AUD-004", "tRP (PRE->ACT)", ev, i, t.tRP, u.lastPreAt + t.tRP);
      if (r.lastActAt >= 0 && ev.at < r.lastActAt + t.tRRD)
        return fail("MB-AUD-005", "tRRD (ACT->ACT same rank)", ev, i, t.tRRD,
                    r.lastActAt + t.tRRD);
      if (r.actWindow.size() >= 4 && ev.at < r.actWindow.front() + t.tFAW)
        return fail("MB-AUD-006", "tFAW (five ACTs in window)", ev, i, t.tFAW,
                    r.actWindow.front() + t.tFAW);
      break;
    }
    case CmdEventKind::Pre: {
      const auto& u = ub(ev);
      if (u.openRow < 0) return fail("MB-AUD-007", "PRE to a precharged bank", ev, i);
      if (u.lastActAt >= 0 && ev.at < u.lastActAt + t.tRAS)
        return fail("MB-AUD-008", "tRAS (ACT->PRE)", ev, i, t.tRAS, u.lastActAt + t.tRAS);
      if (u.lastReadCasAt >= 0 && ev.at < u.lastReadCasAt + t.tRTP)
        return fail("MB-AUD-009", "tRTP (RD->PRE)", ev, i, t.tRTP, u.lastReadCasAt + t.tRTP);
      if (u.lastWriteDataEndAt >= 0 && ev.at < u.lastWriteDataEndAt + t.tWR)
        return fail("MB-AUD-010", "tWR (WR data->PRE)", ev, i, t.tWR,
                    u.lastWriteDataEndAt + t.tWR);
      break;
    }
    case CmdEventKind::Read:
    case CmdEventKind::Write: {
      const auto& u = ub(ev);
      const auto& r = rk(ev);
      if (u.openRow != ev.row) return fail("MB-AUD-011", "CAS to a row that is not open", ev, i);
      if (u.lastActAt >= 0 && ev.at < u.lastActAt + t.tRCD)
        return fail("MB-AUD-012", "tRCD (ACT->CAS)", ev, i, t.tRCD, u.lastActAt + t.tRCD);
      if (lastCasAt_ >= 0 && ev.at < lastCasAt_ + t.tCCD)
        return fail("MB-AUD-013", "tCCD (CAS->CAS)", ev, i, t.tCCD, lastCasAt_ + t.tCCD);
      if (ev.kind == CmdEventKind::Read && r.lastWriteDataEndAt >= 0 &&
          ev.at < r.lastWriteDataEndAt + t.tWTR)
        return fail("MB-AUD-014", "tWTR (WR data->RD)", ev, i, t.tWTR,
                    r.lastWriteDataEndAt + t.tWTR);
      Tick busReady = lastDataEndAt_;
      if (lastCasRank_ >= 0 && lastCasRank_ != ev.rank) busReady += t.tRTRS;
      if (lastDataEndAt_ >= 0 && ev.dataStart < busReady)
        return fail("MB-AUD-015", "data bus burst overlap / rank switch (tRTRS)", ev, i,
                    t.tRTRS, busReady - t.tAA);
      break;
    }
    case CmdEventKind::Refresh:
    case CmdEventKind::OraclePre:
    case CmdEventKind::EndOfRun:
      break;
  }
  commit(ev);
  return true;
}

bool TraceAuditor::fail(const char* code, const char* constraint, const CmdEvent& ev,
                        std::int64_t i, Tick bound, Tick earliestLegal) {
  Diagnostic d(code, Severity::Error,
               std::string("command-trace audit violation: ") + constraint);
  if (i >= 0) d.with("event_index", i);
  d.with("event", cmdEventKindName(ev.kind))
      .with("address", addrOf(ev).toString())
      .with("at_ps", ev.at)
      .with("constraint", constraint);
  if (bound >= 0) d.with("bound_ps", bound);
  if (earliestLegal >= 0) d.with("earliest_legal_ps", earliestLegal);
  const auto& u = ub(ev);
  const auto& r = rk(ev);
  d.with("ubank.open_row", u.openRow)
      .with("ubank.last_act_ps", u.lastActAt)
      .with("ubank.last_pre_ps", u.lastPreAt)
      .with("ubank.last_read_cas_ps", u.lastReadCasAt)
      .with("ubank.last_write_data_end_ps", u.lastWriteDataEndAt)
      .with("rank.last_act_ps", r.lastActAt)
      .with("rank.acts_in_faw_window", static_cast<std::int64_t>(r.actWindow.size()))
      .with("rank.last_write_data_end_ps", r.lastWriteDataEndAt)
      .with("channel.last_cmd_ps", lastCmdAt_)
      .with("channel.last_cas_ps", lastCasAt_)
      .with("channel.last_data_end_ps", lastDataEndAt_)
      .with("channel.last_cas_rank", static_cast<std::int64_t>(lastCasRank_));
  return reject(std::move(d));
}

void TraceAuditor::commit(const CmdEvent& ev) {
  const auto closeRow = [](UbankShadow& u) {
    u.openRow = -1;
    u.lastPreAt = -1;
    u.lastReadCasAt = -1;
    u.lastWriteDataEndAt = -1;
  };
  switch (ev.kind) {
    case CmdEventKind::Act: {
      auto& u = ub(ev);
      auto& r = rk(ev);
      u.lastActAt = ev.at;
      u.openRow = ev.row;
      u.lastReadCasAt = -1;
      u.lastWriteDataEndAt = -1;
      r.lastActAt = ev.at;
      // Keep at most the four newest ACTs, and drop any that can no longer
      // constrain a later ACT: every accepted command has at' >= ev.at (an
      // earlier one fails MB-AUD-001 before the window is read), so pruning
      // never changes a verdict and the history stays bounded by the tFAW
      // window, not the run length.
      r.actWindow.push_back(ev.at);
      while (r.actWindow.size() > 4 ||
             (!r.actWindow.empty() && r.actWindow.front() + cfg_.timing.tFAW <= ev.at))
        r.actWindow.pop_front();
      lastCmdAt_ = ev.at;
      break;
    }
    case CmdEventKind::Pre: {
      auto& u = ub(ev);
      u.lastPreAt = ev.at;
      u.openRow = -1;
      lastCmdAt_ = ev.at;
      break;
    }
    case CmdEventKind::Read:
    case CmdEventKind::Write: {
      auto& u = ub(ev);
      lastDataEndAt_ = ev.dataEnd;
      lastCasAt_ = ev.at;
      lastCasRank_ = ev.rank;
      if (ev.kind == CmdEventKind::Write) {
        u.lastWriteDataEndAt = ev.dataEnd;
        rk(ev).lastWriteDataEndAt = ev.dataEnd;
      } else {
        u.lastReadCasAt = ev.at;
      }
      lastCmdAt_ = ev.at;
      break;
    }
    case CmdEventKind::Refresh: {
      // The refresh window folds in the implicit precharges and tRP: reset
      // the row state of every refreshed μbank. Refresh occupies no
      // command-bus slot in the live model, so the channel history is
      // untouched.
      const auto& g = cfg_.geom;
      const int b0 = ev.bank < 0 ? 0 : ev.bank;
      const int b1 = ev.bank < 0 ? g.banksPerRank : ev.bank + 1;
      for (int bank = b0; bank < b1; ++bank)
        for (int u = 0; u < g.ubanksPerBank(); ++u) closeRow(ub(ev.rank, bank, u));
      break;
    }
    case CmdEventKind::OraclePre:
      // Retroactive close decided by the perfect-oracle policy: no bus slot,
      // no PRE->ACT window (the device charged it retroactively).
      closeRow(ub(ev));
      break;
    case CmdEventKind::EndOfRun:
      break;
  }
}

// ---- Serializable protocol -----------------------------------------------
//
// The controller-section layout of the checking state: the μbanks and ranks
// any ACT/PRE/CAS has addressed, each as (packed key, history) in ascending
// key order, then the channel history and the audited-command count.

void TraceAuditor::save(ckpt::Writer& w) const {
  const auto& g = cfg_.geom;
  const auto seen = [](const auto& v) {
    return static_cast<std::uint64_t>(
        std::count_if(v.begin(), v.end(), [](const auto& s) { return s.seen; }));
  };
  w.u64(seen(ubanks_));
  std::size_t i = 0;
  for (int rank = 0; rank < g.ranksPerChannel; ++rank) {
    for (int bank = 0; bank < g.banksPerRank; ++bank) {
      for (int ubank = 0; ubank < g.ubanksPerBank(); ++ubank) {
        const UbankShadow& u = ubanks_[i++];
        if (!u.seen) continue;
        w.i64(ubankKey(channel_, rank, bank, ubank));
        w.i64(u.lastActAt);
        w.i64(u.lastPreAt);
        w.i64(u.lastReadCasAt);
        w.i64(u.lastWriteDataEndAt);
        w.i64(u.openRow);
      }
    }
  }
  w.u64(seen(ranks_));
  for (int rank = 0; rank < g.ranksPerChannel; ++rank) {
    const RankShadow& rs = ranks_[static_cast<std::size_t>(rank)];
    if (!rs.seen) continue;
    w.i64(rankKey(channel_, rank));
    w.i64(rs.lastActAt);
    w.u64(rs.actWindow.size());
    for (const Tick at : rs.actWindow) w.i64(at);
    w.i64(rs.lastWriteDataEndAt);
  }
  w.i64(lastCmdAt_);
  w.i64(lastCasAt_);
  w.i64(lastDataEndAt_);
  w.i32(lastCasRank_);
  w.i64(commands_);
}

void TraceAuditor::load(ckpt::Reader& r) {
  const auto& g = cfg_.geom;
  std::fill(ubanks_.begin(), ubanks_.end(), UbankShadow{});
  std::fill(ranks_.begin(), ranks_.end(), RankShadow{});
  // A key must re-encode to itself for this channel and name a structure
  // inside the geometry; anything else is a corrupt or foreign snapshot.
  const std::uint64_t nUb = r.count(48);
  for (std::uint64_t n = 0; n < nUb && r.ok(); ++n) {
    const std::int64_t key = r.i64();
    const int rank = keyField(key, 2 * kIdBits, kRankBits);
    const int bank = keyField(key, kIdBits, kIdBits);
    const int ubank = keyField(key, 0, kIdBits);
    if (key != ubankKey(channel_, rank, bank, ubank) || rank >= g.ranksPerChannel ||
        bank >= g.banksPerRank || ubank >= g.ubanksPerBank())
      r.fail();
    UbankShadow u;
    u.lastActAt = r.i64();
    u.lastPreAt = r.i64();
    u.lastReadCasAt = r.i64();
    u.lastWriteDataEndAt = r.i64();
    u.openRow = r.i64();
    u.seen = true;
    if (r.ok()) ub(rank, bank, ubank) = u;
  }
  const std::uint64_t nRk = r.count(32);
  for (std::uint64_t n = 0; n < nRk && r.ok(); ++n) {
    const std::int64_t key = r.i64();
    const int rank = keyField(key, 0, kRankBits);
    if (key != rankKey(channel_, rank) || rank >= g.ranksPerChannel) r.fail();
    RankShadow rs;
    rs.lastActAt = r.i64();
    const std::uint64_t acts = r.count(8);
    if (acts > 4) r.fail();  // the tFAW window never holds more
    for (std::uint64_t k = 0; k < acts && r.ok(); ++k) rs.actWindow.push_back(r.i64());
    rs.lastWriteDataEndAt = r.i64();
    rs.seen = true;
    if (r.ok()) ranks_[static_cast<std::size_t>(rank)] = std::move(rs);
  }
  lastCmdAt_ = r.i64();
  lastCasAt_ = r.i64();
  lastDataEndAt_ = r.i64();
  lastCasRank_ = r.i32();
  commands_ = r.i64();
}

// ---- Offline audit of a recorded trace -----------------------------------

namespace {

/// Reports an unusable header as MB-AUD-018; no auditor can be built for it.
bool headerSane(const CmdTraceConfig& cfg, DiagnosticEngine& diags) {
  if (!cfg.geom.valid()) {
    Diagnostic d("MB-AUD-018", Severity::Error,
                 "command-trace audit violation: trace header geometry is "
                 "invalid");
    d.with("channels", static_cast<std::int64_t>(cfg.geom.channels))
        .with("ranks_per_channel", static_cast<std::int64_t>(cfg.geom.ranksPerChannel))
        .with("banks_per_rank", static_cast<std::int64_t>(cfg.geom.banksPerRank))
        .with("nw", static_cast<std::int64_t>(cfg.geom.ubank.nW))
        .with("nb", static_cast<std::int64_t>(cfg.geom.ubank.nB));
    diags.report(std::move(d));
    return false;
  }
  if (!baseBitInRange(cfg)) {
    Diagnostic d("MB-AUD-018", Severity::Error,
                 "command-trace audit violation: interleave base bit out of "
                 "range for the recorded geometry");
    d.with("interleave_base_bit", static_cast<std::int64_t>(cfg.interleaveBaseBit))
        .with("min", static_cast<std::int64_t>(6))
        .with("max", static_cast<std::int64_t>(maxBaseBit(cfg.geom)));
    diags.report(std::move(d));
    return false;
  }
  return true;
}

void checkExpectedConfig(const CmdTraceConfig& got, const CmdTraceConfig& want,
                         DiagnosticEngine& diags) {
  std::vector<std::pair<std::string, std::pair<std::string, std::string>>> bad;
  const auto cmpI = [&](const char* field, std::int64_t g, std::int64_t w) {
    if (g != w) bad.push_back({field, {std::to_string(g), std::to_string(w)}});
  };
  const auto cmpD = [&](const char* field, double g, double w) {
    if (g != w) bad.push_back({field, {std::to_string(g), std::to_string(w)}});
  };
  cmpI("geom.channels", got.geom.channels, want.geom.channels);
  cmpI("geom.ranks_per_channel", got.geom.ranksPerChannel, want.geom.ranksPerChannel);
  cmpI("geom.banks_per_rank", got.geom.banksPerRank, want.geom.banksPerRank);
  cmpI("geom.nw", got.geom.ubank.nW, want.geom.ubank.nW);
  cmpI("geom.nb", got.geom.ubank.nB, want.geom.ubank.nB);
  cmpI("geom.row_bytes", got.geom.rowBytes, want.geom.rowBytes);
  cmpI("geom.capacity_bytes", got.geom.capacityBytes, want.geom.capacityBytes);
  cmpI("geom.line_bytes", got.geom.lineBytes, want.geom.lineBytes);
  cmpI("interleave_base_bit", got.interleaveBaseBit, want.interleaveBaseBit);
  cmpI("xor_bank_hash", got.xorBankHash ? 1 : 0, want.xorBankHash ? 1 : 0);
  const auto& gt = got.timing;
  const auto& wt = want.timing;
  cmpI("timing.t_cmd", gt.tCMD, wt.tCMD);
  cmpI("timing.t_burst", gt.tBURST, wt.tBURST);
  cmpI("timing.t_ccd", gt.tCCD, wt.tCCD);
  cmpI("timing.t_rtrs", gt.tRTRS, wt.tRTRS);
  cmpI("timing.t_rcd", gt.tRCD, wt.tRCD);
  cmpI("timing.t_aa", gt.tAA, wt.tAA);
  cmpI("timing.t_ras", gt.tRAS, wt.tRAS);
  cmpI("timing.t_rp", gt.tRP, wt.tRP);
  cmpI("timing.t_rrd", gt.tRRD, wt.tRRD);
  cmpI("timing.t_faw", gt.tFAW, wt.tFAW);
  cmpI("timing.t_wr", gt.tWR, wt.tWR);
  cmpI("timing.t_wtr", gt.tWTR, wt.tWTR);
  cmpI("timing.t_rtp", gt.tRTP, wt.tRTP);
  cmpI("timing.t_refi", gt.tREFI, wt.tREFI);
  cmpI("timing.t_rfc", gt.tRFC, wt.tRFC);
  cmpI("timing.t_rfc_pb", gt.tRFCpb, wt.tRFCpb);
  const auto& ge = got.energy;
  const auto& we = want.energy;
  cmpD("energy.act_pre_full_row", ge.actPreFullRow, we.actPreFullRow);
  cmpI("energy.full_row_bytes", ge.fullRowBytes, we.fullRowBytes);
  cmpD("energy.rdwr_per_bit", ge.rdwrPerBit, we.rdwrPerBit);
  cmpD("energy.io_per_bit", ge.ioPerBit, we.ioPerBit);
  cmpD("energy.latch_per_ubank_access", ge.latchPerUbankAccess, we.latchPerUbankAccess);
  cmpD("energy.static_power_per_rank_w", ge.staticPowerPerRankWatts,
       we.staticPowerPerRankWatts);
  cmpD("energy.refresh_per_rank", ge.refreshPerRank, we.refreshPerRank);
  if (bad.empty()) return;
  Diagnostic d("MB-AUD-021", Severity::Error,
               "trace header does not match the expected configuration");
  d.with("mismatched_fields", static_cast<std::int64_t>(bad.size()));
  for (const auto& [field, gw] : bad) d.with(field, gw.first + " (expected " + gw.second + ")");
  diags.report(std::move(d));
}

// Energy is accrued for every recorded event: a recorded event is, by
// definition, one the live controller committed and charged, so the
// recompute must charge it too even when the audit rejects it.
void accrueEnergy(const CmdTraceConfig& cfg, const CmdEvent& ev, TraceAuditResult& res) {
  const auto& e = cfg.energy;
  const auto& g = cfg.geom;
  switch (ev.kind) {
    case CmdEventKind::Act:
      res.actPre += e.actPreEnergy(g.ubankRowBytes());
      ++res.activations;
      break;
    case CmdEventKind::Read:
    case CmdEventKind::Write: {
      const double bits = static_cast<double>(g.lineBytes) * 8.0;
      res.rdwr += e.casEnergy(g.lineBytes, g.ubanksPerBank()) - bits * e.ioPerBit;
      res.io += bits * e.ioPerBit;
      ++res.casOps;
      break;
    }
    case CmdEventKind::Refresh:
      res.actPre += e.refreshPerRank *
                    (ev.bank < 0 ? 1.0 : 1.0 / static_cast<double>(g.banksPerRank));
      ++res.refreshes;
      break;
    case CmdEventKind::Pre:
    case CmdEventKind::OraclePre:
    case CmdEventKind::EndOfRun:
      break;  // PRE energy is folded into the ACT+PRE pair charge
  }
}

void checkTrailer(const CmdTrace& trace, const TraceAuditOptions& opts,
                  TraceAuditResult& res, DiagnosticEngine& diags) {
  const auto& tr = trace.trailer;
  if (!tr.present) {
    Diagnostic d("MB-AUD-022", Severity::Warning,
                 "trace carries no end-of-run trailer: energy and count "
                 "cross-checks skipped");
    d.with("events", res.eventsAudited);
    diags.report(std::move(d));
    return;
  }
  const auto& cfg = trace.config;
  res.staticEnergy = cfg.energy.staticPowerPerRankWatts *
                     static_cast<double>(cfg.geom.channels) *
                     static_cast<double>(cfg.geom.ranksPerChannel) *
                     toSeconds(tr.elapsed) * 1e12;

  if (res.activations != tr.activations || res.casOps != tr.casOps ||
      res.refreshes != tr.refreshes) {
    Diagnostic d("MB-AUD-020", Severity::Error,
                 "recomputed event counts disagree with the recorded run");
    d.with("activations", res.activations)
        .with("activations_recorded", tr.activations)
        .with("cas_ops", res.casOps)
        .with("cas_ops_recorded", tr.casOps)
        .with("refreshes", res.refreshes)
        .with("refreshes_recorded", tr.refreshes);
    diags.report(std::move(d));
  }

  const auto relErr = [](double a, double b) {
    const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
    return std::fabs(a - b) / scale;
  };
  struct Cat {
    const char* name;
    double recomputed;
    double recorded;
  };
  const double recTotal = tr.actPre + tr.rdwr + tr.io + tr.staticEnergy;
  const Cat cats[] = {
      {"act_pre", res.actPre, tr.actPre},
      {"rdwr", res.rdwr, tr.rdwr},
      {"io", res.io, tr.io},
      {"static", res.staticEnergy, tr.staticEnergy},
      {"total", res.recomputedTotal(), recTotal},
  };
  const Cat* worst = nullptr;
  for (const auto& c : cats) {
    if (relErr(c.recomputed, c.recorded) <= opts.energyRelTol) continue;
    if (worst == nullptr ||
        relErr(c.recomputed, c.recorded) > relErr(worst->recomputed, worst->recorded))
      worst = &c;
  }
  if (worst == nullptr) return;
  Diagnostic d("MB-AUD-019", Severity::Error,
               std::string("recomputed DRAM energy disagrees with the "
                           "recorded run (worst category: ") +
                   worst->name + ")");
  d.with("tolerance", opts.energyRelTol);
  for (const auto& c : cats) {
    d.with(std::string(c.name) + "_recomputed_pj", c.recomputed);
    d.with(std::string(c.name) + "_recorded_pj", c.recorded);
    d.with(std::string(c.name) + "_rel_err", relErr(c.recomputed, c.recorded));
  }
  diags.report(std::move(d));
}

std::vector<TraceAuditor> channelAuditors(const CmdTraceConfig& cfg,
                                          DiagnosticEngine* diags) {
  std::vector<TraceAuditor> auditors;
  auditors.reserve(static_cast<std::size_t>(cfg.geom.channels));
  for (int ch = 0; ch < cfg.geom.channels; ++ch) {
    auditors.emplace_back(cfg, ch);
    auditors.back().diagnostics = diags;
  }
  return auditors;
}

}  // namespace

TraceAuditResult auditCmdTrace(const CmdTrace& trace, DiagnosticEngine& diags,
                               const TraceAuditOptions& opts) {
  TraceAuditResult res;
  if (opts.expectConfig != nullptr) checkExpectedConfig(trace.config, *opts.expectConfig, diags);
  if (!headerSane(trace.config, diags)) return res;
  auto auditors = channelAuditors(trace.config, &diags);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const CmdEvent& ev = trace.events[i];
    ++res.eventsAudited;
    accrueEnergy(trace.config, ev, res);
    // An event naming no channel of the geometry goes to channel 0's
    // auditor, which rejects it as MB-AUD-018.
    const bool inRange = ev.channel >= 0 && ev.channel < trace.config.geom.channels;
    TraceAuditor& auditor = auditors[inRange ? static_cast<std::size_t>(ev.channel) : 0];
    if (!auditor.audit(ev, static_cast<std::int64_t>(i))) ++res.commandsRejected;
  }
  checkTrailer(trace, opts, res, diags);
  return res;
}

// ---- Mutation self-test harness -------------------------------------------

const char* traceMutationName(TraceMutation m) {
  switch (m) {
    case TraceMutation::CasBeforeTrcd: return "cas-before-trcd";
    case TraceMutation::ActBeforeTrp: return "act-before-trp";
    case TraceMutation::PreOnIdleUbank: return "pre-on-idle-ubank";
    case TraceMutation::PreBecomesAct: return "pre-becomes-act";
    case TraceMutation::CasRowMismatch: return "cas-row-mismatch";
    case TraceMutation::BurstBoundsTampered: return "burst-bounds-tampered";
    case TraceMutation::ColumnOutOfRange: return "column-out-of-range";
    case TraceMutation::TrailerEnergyTampered: return "trailer-energy-tampered";
  }
  return "?";
}

const char* traceMutationExpectedCode(TraceMutation m) {
  switch (m) {
    case TraceMutation::CasBeforeTrcd: return "MB-AUD-012";
    case TraceMutation::ActBeforeTrp: return "MB-AUD-004";
    case TraceMutation::PreOnIdleUbank: return "MB-AUD-007";
    case TraceMutation::PreBecomesAct: return "MB-AUD-003";
    case TraceMutation::CasRowMismatch: return "MB-AUD-011";
    case TraceMutation::BurstBoundsTampered: return "MB-AUD-016";
    case TraceMutation::ColumnOutOfRange: return "MB-AUD-018";
    case TraceMutation::TrailerEnergyTampered: return "MB-AUD-019";
  }
  return "?";
}

std::optional<TraceMutation> traceMutationFromName(const std::string& name) {
  for (int k = 0; k < kTraceMutationCount; ++k) {
    const auto m = static_cast<TraceMutation>(k);
    if (name == traceMutationName(m)) return m;
  }
  return std::nullopt;
}

bool applyTraceMutation(CmdTrace& trace, TraceMutation m, std::uint64_t seed) {
  if (m == TraceMutation::TrailerEnergyTampered) {
    if (!trace.trailer.present) return false;
    // 5% plus an absolute pJ: decisively past any recompute tolerance even
    // when the category happens to be zero.
    trace.trailer.actPre = trace.trailer.actPre * 1.05 + 1.0;
    return true;
  }
  if (!trace.config.geom.valid() || !baseBitInRange(trace.config)) return false;
  const auto& t = trace.config.timing;
  const auto& g = trace.config.geom;

  struct Victim {
    std::size_t idx;
    Tick newAt = -1;
    int altBank = -1;
    int altUbank = -1;
  };
  std::vector<Victim> victims;
  // Commit-only shadow replay: no checks run, so no diagnostics are made.
  auto shadows = channelAuditors(trace.config, nullptr);

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const CmdEvent& ev = trace.events[i];
    if (ev.channel < 0 || ev.channel >= g.channels) continue;
    TraceAuditor& st = shadows[static_cast<std::size_t>(ev.channel)];
    // Only ACT/PRE/RD/WR are mutation targets; the predicates below need
    // addressed shadow state that Refresh (bank may be -1) does not have.
    if (!isTimed(ev.kind)) {
      st.commit(ev);
      continue;
    }
    const auto& u = st.ub(ev);
    const auto& r = st.rk(ev);
    // Every eligibility rule below guarantees that, in the mutant, no check
    // ordered before the targeted one fires on the victim event: the checks
    // preceding the target still pass against the same shadow state.
    switch (m) {
      case TraceMutation::CasBeforeTrcd: {
        if (!isCas(ev.kind) || u.lastActAt < 0) break;
        const Tick newAt = u.lastActAt + t.tRCD - 1;
        if (newAt < 0 || newAt >= ev.at) break;                              // must move earlier
        if (st.lastCmdAt_ >= 0 && newAt < st.lastCmdAt_ + t.tCMD) break;    // 001/002
        if (u.openRow != ev.row) break;                                      // 011
        if (st.lastCasAt_ >= 0 && newAt < st.lastCasAt_ + t.tCCD) break;    // 013
        if (ev.kind == CmdEventKind::Read && r.lastWriteDataEndAt >= 0 &&
            newAt < r.lastWriteDataEndAt + t.tWTR)
          break;  // 014
        Tick busReady = st.lastDataEndAt_;
        if (st.lastCasRank_ >= 0 && st.lastCasRank_ != ev.rank) busReady += t.tRTRS;
        if (st.lastDataEndAt_ >= 0 && newAt + t.tAA < busReady) break;  // 015
        victims.push_back({i, newAt, -1, -1});
        break;
      }
      case TraceMutation::ActBeforeTrp: {
        if (ev.kind != CmdEventKind::Act || u.lastPreAt < 0) break;
        const Tick newAt = u.lastPreAt + t.tRP - 1;
        if (newAt < 0 || newAt >= ev.at) break;
        if (st.lastCmdAt_ >= 0 && newAt < st.lastCmdAt_ + t.tCMD) break;  // 001/002
        if (u.openRow >= 0) break;                                         // 003
        if (r.lastActAt >= 0 && newAt < r.lastActAt + t.tRRD) break;       // 005
        if (r.actWindow.size() >= 4 && newAt < r.actWindow.front() + t.tFAW)
          break;  // 006
        victims.push_back({i, newAt, -1, -1});
        break;
      }
      case TraceMutation::PreOnIdleUbank: {
        if (ev.kind != CmdEventKind::Pre) break;
        // Retarget at any μbank of the same rank whose row is closed.
        bool found = false;
        for (int bank = 0; bank < g.banksPerRank && !found; ++bank) {
          for (int ub = 0; ub < g.ubanksPerBank() && !found; ++ub) {
            if (bank == ev.bank && ub == ev.ubank) continue;
            if (st.ub(ev.rank, bank, ub).openRow >= 0) continue;
            victims.push_back({i, -1, bank, ub});
            found = true;
          }
        }
        break;
      }
      case TraceMutation::PreBecomesAct: {
        if (ev.kind != CmdEventKind::Pre || u.openRow < 0) break;
        victims.push_back({i, -1, -1, -1});
        break;
      }
      case TraceMutation::CasRowMismatch: {
        if (!isCas(ev.kind) || g.rowsPerUbank() < 2) break;
        if (u.openRow != ev.row) break;
        victims.push_back({i, -1, -1, -1});
        break;
      }
      case TraceMutation::BurstBoundsTampered: {
        if (isCas(ev.kind)) victims.push_back({i, -1, -1, -1});
        break;
      }
      case TraceMutation::ColumnOutOfRange: {
        if (ev.kind == CmdEventKind::Act) victims.push_back({i, -1, -1, -1});
        break;
      }
      case TraceMutation::TrailerEnergyTampered:
        break;  // handled above
    }
    st.commit(ev);
  }
  if (victims.empty()) return false;

  const Victim& v = victims[seed % victims.size()];
  CmdEvent& ev = trace.events[v.idx];
  switch (m) {
    case TraceMutation::CasBeforeTrcd: {
      const Tick delta = ev.at - v.newAt;
      ev.at = v.newAt;
      ev.dataStart -= delta;
      ev.dataEnd -= delta;
      break;
    }
    case TraceMutation::ActBeforeTrp:
      ev.at = v.newAt;
      break;
    case TraceMutation::PreOnIdleUbank:
      ev.bank = v.altBank;
      ev.ubank = v.altUbank;
      break;
    case TraceMutation::PreBecomesAct:
      ev.kind = CmdEventKind::Act;
      break;
    case TraceMutation::CasRowMismatch:
      ev.row = (ev.row + 1) % g.rowsPerUbank();
      break;
    case TraceMutation::BurstBoundsTampered:
      ev.dataEnd += 1;
      break;
    case TraceMutation::ColumnOutOfRange:
      ev.column = g.linesPerUbankRow();
      break;
    case TraceMutation::TrailerEnergyTampered:
      break;
  }
  return true;
}

}  // namespace mb::mc
