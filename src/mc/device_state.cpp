#include "mc/device_state.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace mb::mc {

const char* commandName(DramCommand cmd) {
  switch (cmd) {
    case DramCommand::Act: return "ACT";
    case DramCommand::Pre: return "PRE";
    case DramCommand::Read: return "RD";
    case DramCommand::Write: return "WR";
    case DramCommand::Refresh: return "REF";
  }
  return "?";
}

ChannelState::ChannelState(const dram::Geometry& geom, const dram::TimingParams& timing)
    : geom_(geom), timing_(timing) {
  MB_CHECK(geom_.valid());
  MB_CHECK(timing_.valid());
  banksPerRank_ = geom_.banksPerRank;
  ubanksPerBank_ = geom_.ubanksPerBank();
  ubanksPerRank_ = banksPerRank_ * ubanksPerBank_;
  ranks_.resize(static_cast<size_t>(geom_.ranksPerChannel));
  for (int r = 0; r < geom_.ranksPerChannel; ++r) {
    // Stagger initial refreshes across ranks so they do not align.
    ranks_[static_cast<size_t>(r)].nextRefreshAt =
        timing_.tREFI + (timing_.tREFI / geom_.ranksPerChannel) * r;
  }
  const size_t total =
      static_cast<size_t>(geom_.ranksPerChannel) * static_cast<size_t>(ubanksPerRank_);
  openRow_.assign(total, -1);
  actReadyAt_.assign(total, 0);
  lastActAt_.assign(total, -1);
  lastReadCasAt_.assign(total, -1);
  lastWriteDataEndAt_.assign(total, -1);
  earliestPreAt_.assign(total, 0);
  lazyPending_.assign(total, 0);
  openRowBits_.assign((total + 63) / 64, 0);
}

UbankState ChannelState::ubank(const core::DramAddress& da) const {
  const auto i = static_cast<size_t>(ubankIndex(da));
  UbankState ub;
  ub.openRow = openRow_[i];
  ub.actReadyAt = actReadyAt_[i];
  ub.lastActAt = lastActAt_[i];
  ub.lastReadCasAt = lastReadCasAt_[i];
  ub.lastWriteDataEndAt = lastWriteDataEndAt_[i];
  ub.lazyPending = lazyPending_[i] != 0;
  ub.earliestPreAt = earliestPreAt_[i];
  return ub;
}

Tick ChannelState::fawReadyAt(const RankState& rank) const {
  if (!rank.actWindow.full()) return 0;
  // A fifth ACT must wait until the oldest of the last four leaves the window.
  return rank.actWindow.front() + timing_.tFAW;
}

Tick ChannelState::earliestAct(const core::DramAddress& da, int ub, Tick now) const {
  const auto& rk = ranks_[static_cast<size_t>(da.rank)];
  Tick t = std::max(now, cmdBusFreeAt_);
  t = std::max(t, actReadyAt_[static_cast<size_t>(ub)]);
  if (rk.lastActAt >= 0) t = std::max(t, rk.lastActAt + timing_.tRRD);
  t = std::max(t, fawReadyAt(rk));
  t = std::max(t, rk.refreshUntil);
  return t;
}

Tick ChannelState::earliestPre(const core::DramAddress& da, int ub, Tick now) const {
  const auto& rk = ranks_[static_cast<size_t>(da.rank)];
  const auto i = static_cast<size_t>(ub);
  Tick t = std::max(now, cmdBusFreeAt_);
  if (lastActAt_[i] >= 0) t = std::max(t, lastActAt_[i] + timing_.tRAS);
  if (lastReadCasAt_[i] >= 0) t = std::max(t, lastReadCasAt_[i] + timing_.tRTP);
  if (lastWriteDataEndAt_[i] >= 0)
    t = std::max(t, lastWriteDataEndAt_[i] + timing_.tWR);
  t = std::max(t, rk.refreshUntil);
  return t;
}

Tick ChannelState::earliestCas(const core::DramAddress& da, int ub, bool write,
                               Tick now) const {
  const auto& rk = ranks_[static_cast<size_t>(da.rank)];
  const auto i = static_cast<size_t>(ub);
  MB_CHECK(openRow_[i] >= 0);
  Tick t = std::max(now, cmdBusFreeAt_);
  t = std::max(t, lastActAt_[i] + timing_.tRCD);
  if (lastCasAt_ >= 0) t = std::max(t, lastCasAt_ + timing_.tCCD);
  if (!write && rk.lastWriteDataEndAt >= 0)
    t = std::max(t, rk.lastWriteDataEndAt + timing_.tWTR);
  t = std::max(t, rk.refreshUntil);
  // The burst must find the data bus free: data starts tAA after the CAS.
  // Switching ranks on a shared bus costs an extra tRTRS bubble.
  Tick busReady = dataBusFreeAt_;
  if (lastCasRank_ >= 0 && lastCasRank_ != da.rank) busReady += timing_.tRTRS;
  if (t + timing_.tAA < busReady) t = busReady - timing_.tAA;
  return t;
}

void ChannelState::commitAct(const core::DramAddress& da, int ub, Tick at) {
  auto& rk = ranks_[static_cast<size_t>(da.rank)];
  const auto i = static_cast<size_t>(ub);
  MB_DCHECK(openRow_[i] < 0);
  MB_DCHECK(at >= earliestAct(da, ub, at));
  setOpenRow(ub, da.row);
  lastActAt_[i] = at;
  lastReadCasAt_[i] = -1;
  lastWriteDataEndAt_[i] = -1;
  lazyPending_[i] = 0;
  rk.lastActAt = at;
  rk.actWindow.push(at);
  cmdBusFreeAt_ = at + timing_.tCMD;
}

void ChannelState::commitPre(const core::DramAddress& /*da*/, int ub, Tick at) {
  const auto i = static_cast<size_t>(ub);
  MB_DCHECK(openRow_[i] >= 0);
  clearOpenRow(ub);
  actReadyAt_[i] = at + timing_.tRP;
  lazyPending_[i] = 0;
  cmdBusFreeAt_ = at + timing_.tCMD;
}

Tick ChannelState::commitCas(const core::DramAddress& da, int ub, bool write, Tick at) {
  auto& rk = ranks_[static_cast<size_t>(da.rank)];
  const auto i = static_cast<size_t>(ub);
  MB_DCHECK(openRow_[i] == da.row);
  const Tick dataStart = at + timing_.tAA;
  const Tick dataEnd = dataStart + timing_.tBURST;
  MB_DCHECK(dataStart >= dataBusFreeAt_);
  dataBusFreeAt_ = dataEnd;
  busyTicks_ += timing_.tBURST;
  lastCasAt_ = at;
  lastCasRank_ = da.rank;
  cmdBusFreeAt_ = at + timing_.tCMD;
  if (write) {
    lastWriteDataEndAt_[i] = dataEnd;
    rk.lastWriteDataEndAt = dataEnd;
  } else {
    lastReadCasAt_[i] = at;
  }
  return dataEnd;
}

ChannelState::LazyOutcome ChannelState::resolveLazy(const core::DramAddress& da,
                                                    int ub) {
  const auto i = static_cast<size_t>(ub);
  if (lazyPending_[i] == 0) return LazyOutcome::NotPending;
  lazyPending_[i] = 0;
  if (openRow_[i] == da.row) {
    // Keeping it open was best: genuine row hit.
    return LazyOutcome::KeptOpen;
  }
  // Closing was best: account as if PRE had issued at the earliest legal
  // point after the previous access.
  clearOpenRow(ub);
  actReadyAt_[i] = std::max(actReadyAt_[i], earliestPreAt_[i] + timing_.tRP);
  return LazyOutcome::Closed;
}

Tick ChannelState::closeAllRows(int lo, int hi, Tick now) {
  // The PREs are folded into the refresh window; they do not consume
  // command-bus slots. Only open μbanks contribute, so walk the set bits.
  Tick start = now;
  for (int w = lo >> 6; w < ((hi + 63) >> 6); ++w) {
    std::uint64_t bits = openRowBits_[static_cast<size_t>(w)];
    if ((w << 6) < lo) bits &= ~0ULL << (lo & 63);
    if (((w + 1) << 6) > hi) bits &= (1ULL << (hi & 63)) - 1;
    if (bits == 0) continue;
    openRowBits_[static_cast<size_t>(w)] &= ~bits;
    while (bits != 0) {
      const auto i = static_cast<size_t>((w << 6) + std::countr_zero(bits));
      bits &= bits - 1;
      Tick pre = now;
      if (lastActAt_[i] >= 0) pre = std::max(pre, lastActAt_[i] + timing_.tRAS);
      if (lastReadCasAt_[i] >= 0)
        pre = std::max(pre, lastReadCasAt_[i] + timing_.tRTP);
      if (lastWriteDataEndAt_[i] >= 0)
        pre = std::max(pre, lastWriteDataEndAt_[i] + timing_.tWR);
      start = std::max(start, pre + timing_.tRP);
      openRow_[i] = -1;
      lazyPending_[i] = 0;
    }
  }
  return start;
}

bool ChannelState::maybeRefresh(Tick now, const std::function<void(int, int)>& refreshHook) {
  if (!refreshEnabled) return false;
  bool any = false;
  for (size_t rankIdx = 0; rankIdx < ranks_.size(); ++rankIdx) {
    auto& rk = ranks_[rankIdx];
    if (now < rk.nextRefreshAt || now < rk.refreshUntil) continue;
    const int rankBase = static_cast<int>(rankIdx) * ubanksPerRank_;

    if (perBankRefresh) {
      // Refresh only the next bank in rotation for the shorter tRFCpb; the
      // rest of the rank keeps serving requests. A full rank pass needs
      // banks-per-rank due intervals, so the per-interval period shrinks
      // proportionally (same total refresh rate as all-bank mode).
      const int lo = rankBase + rk.nextRefreshBank * ubanksPerBank_;
      const int hi = lo + ubanksPerBank_;
      const Tick start = closeAllRows(lo, hi, now);
      const Tick until = start + timing_.tRFCpb;
      for (int i = lo; i < hi; ++i) {
        actReadyAt_[static_cast<size_t>(i)] =
            std::max(actReadyAt_[static_cast<size_t>(i)], until);
      }
      const int refreshedBank = rk.nextRefreshBank;
      rk.nextRefreshBank = (rk.nextRefreshBank + 1) % banksPerRank_;
      const Tick period = timing_.tREFI / static_cast<Tick>(banksPerRank_);
      int intervals = 0;
      while (now >= rk.nextRefreshAt) {
        rk.nextRefreshAt += period;
        ++intervals;
      }
      if (refreshHook) {
        for (int i = 0; i < intervals; ++i)
          refreshHook(static_cast<int>(rankIdx), refreshedBank);
      }
      any = true;
      continue;
    }

    // All-bank refresh: every row in the rank must be precharged first.
    const Tick start = closeAllRows(rankBase, rankBase + ubanksPerRank_, now);
    // Catch up on every interval that elapsed (e.g., after an idle stretch):
    // each one costs refresh energy, but the rank is only blocked once now —
    // the earlier refreshes happened during the idle period.
    int intervals = 0;
    while (now >= rk.nextRefreshAt) {
      rk.nextRefreshAt += timing_.tREFI;
      ++intervals;
    }
    rk.refreshUntil = start + timing_.tRFC;
    for (int i = rankBase; i < rankBase + ubanksPerRank_; ++i) {
      actReadyAt_[static_cast<size_t>(i)] =
          std::max(actReadyAt_[static_cast<size_t>(i)], rk.refreshUntil);
    }
    if (refreshHook) {
      for (int i = 0; i < intervals; ++i) refreshHook(static_cast<int>(rankIdx), -1);
    }
    any = true;
  }
  return any;
}

Tick ChannelState::nextRefreshDue() const {
  if (!refreshEnabled) return kTickNever;
  Tick t = kTickNever;
  for (const auto& rk : ranks_) t = std::min(t, rk.nextRefreshAt);
  return t;
}

double ChannelState::dataBusUtilization(Tick elapsed) const {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busyTicks_) / static_cast<double>(elapsed);
}


// ---- Serializable protocol -----------------------------------------------

void ActRing::save(ckpt::Writer& w) const {
  w.u64(static_cast<std::uint64_t>(len_));
  for (int i = 0; i < size(); ++i) w.i64(at(i));
}

void ActRing::load(ckpt::Reader& r) {
  clear();
  const std::uint64_t n = r.count(8);
  if (n > kCap) {
    // Honest writers keep the window at the tFAW occupancy bound; anything
    // longer is a corrupt or hostile snapshot.
    r.fail();
    return;
  }
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) push(r.i64());
}

void ChannelState::save(ckpt::Writer& w) const {
  // Legacy layout: per rank, the refresh rotation pointer, then every
  // μbank record in [bank][ubank] order (== ubankIndex order), then the
  // rank scalars — byte-identical to the old nested-struct walk.
  w.u64(ranks_.size());
  for (size_t rankIdx = 0; rankIdx < ranks_.size(); ++rankIdx) {
    const auto& rk = ranks_[rankIdx];
    w.i32(rk.nextRefreshBank);
    const size_t base = rankIdx * static_cast<size_t>(ubanksPerRank_);
    for (size_t i = base; i < base + static_cast<size_t>(ubanksPerRank_); ++i) {
      w.i64(openRow_[i]);
      w.i64(actReadyAt_[i]);
      w.i64(lastActAt_[i]);
      w.i64(lastReadCasAt_[i]);
      w.i64(lastWriteDataEndAt_[i]);
      w.b(lazyPending_[i] != 0);
      w.i64(earliestPreAt_[i]);
    }
    w.i64(rk.lastActAt);
    rk.actWindow.save(w);
    w.i64(rk.lastWriteDataEndAt);
    w.i64(rk.refreshUntil);
    w.i64(rk.nextRefreshAt);
  }
  w.i64(cmdBusFreeAt_);
  w.i64(dataBusFreeAt_);
  w.i64(lastCasAt_);
  w.i32(lastCasRank_);
  w.i64(busyTicks_);
  w.b(refreshEnabled);
  w.b(perBankRefresh);
}

void ChannelState::load(ckpt::Reader& r) {
  const std::uint64_t n = r.count(8);
  if (n != ranks_.size()) {
    r.fail();
    return;
  }
  for (size_t rankIdx = 0; rankIdx < ranks_.size() && r.ok(); ++rankIdx) {
    auto& rk = ranks_[rankIdx];
    rk.nextRefreshBank = r.i32();
    const size_t base = rankIdx * static_cast<size_t>(ubanksPerRank_);
    for (size_t i = base; i < base + static_cast<size_t>(ubanksPerRank_); ++i) {
      openRow_[i] = r.i64();
      actReadyAt_[i] = r.i64();
      lastActAt_[i] = r.i64();
      lastReadCasAt_[i] = r.i64();
      lastWriteDataEndAt_[i] = r.i64();
      lazyPending_[i] = r.b() ? 1 : 0;
      earliestPreAt_[i] = r.i64();
    }
    rk.lastActAt = r.i64();
    rk.actWindow.load(r);
    rk.lastWriteDataEndAt = r.i64();
    rk.refreshUntil = r.i64();
    rk.nextRefreshAt = r.i64();
  }
  // Rebuild the open-row bitset from the freshly loaded openRow values.
  std::fill(openRowBits_.begin(), openRowBits_.end(), 0);
  for (size_t i = 0; i < openRow_.size(); ++i) {
    if (openRow_[i] >= 0) openRowBits_[i >> 6] |= 1ULL << (i & 63);
  }
  cmdBusFreeAt_ = r.i64();
  dataBusFreeAt_ = r.i64();
  lastCasAt_ = r.i64();
  lastCasRank_ = r.i32();
  busyTicks_ = r.i64();
  refreshEnabled = r.b();
  perBankRefresh = r.b();
}

}  // namespace mb::mc
