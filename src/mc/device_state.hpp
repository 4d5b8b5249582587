// Runtime timing state of one DRAM channel: ranks, banks, and μbanks.
//
// The model is command-level with "timestamp algebra": instead of ticking
// the device every DRAM clock, each structure records the earliest tick at
// which the next command of each kind may legally issue. The controller asks
// for those bounds, picks a request, and commits a command by advancing the
// timestamps. This is the same modelling level as fast open-source DRAM
// simulators and enforces: tRCD, tRAS, tRP, tRRD, tFAW, tCCD, tRTP, tWR,
// tWTR, command-bus slots (tCMD), data-bus bursts (tBURST), and periodic
// refresh (tREFI / tRFC).
//
// μbanks behave like banks for row state (each holds one open row, timed
// with the same tRCD/tRAS/tRP) but share the per-rank activation windows
// (tRRD/tFAW), the channel command bus, and the channel data bus — matching
// §IV: "μbanks operate independently like conventional banks" while all
// banks in a channel share command and datapath I/O.
//
// Storage layout: μbank timestamps live in per-channel parallel arrays
// (structure-of-arrays) indexed by a flat channel-local (rank, bank, ubank)
// id, with a per-bank open-row bitset, so the controller's candidate scans
// and the refresh sweeps stream through contiguous memory instead of
// striding over 56-byte structs. The snapshot writer still emits the legacy
// per-μbank field order, so MBCKPT1 bytes are unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/types.hpp"
#include "core/address_map.hpp"
#include "dram/geometry.hpp"
#include "dram/timing.hpp"

namespace mb::mc {

enum class DramCommand { Act, Pre, Read, Write, Refresh };

const char* commandName(DramCommand cmd);

/// One μbank's timestamps as a value record. The channel keeps this data in
/// parallel arrays; this struct is the materialized per-μbank view used by
/// tests, diagnostics, and the AoS reference model the SoA layout is
/// differential-tested against. Field order here is the order ChannelState
/// saves each μbank in.
struct UbankState {
  std::int64_t openRow = -1;       // -1: precharged
  Tick actReadyAt = 0;             // earliest next ACT (tRP satisfied)
  Tick lastActAt = -1;             // for tRCD / tRAS
  Tick lastReadCasAt = -1;         // for tRTP before PRE
  Tick lastWriteDataEndAt = -1;    // for tWR before PRE

  // Oracle (PerfectPolicy) support: the page decision was left unresolved;
  // `earliestPreAt` records when a precharge could have been issued, so a
  // later conflicting access can be charged as if the row had been closed.
  bool lazyPending = false;
  Tick earliestPreAt = 0;

  bool rowOpen() const { return openRow >= 0; }
};

/// Fixed-capacity ring over the last (up to) four ACT times — the tFAW
/// occupancy window. Capacity is a protocol constant (a fifth ACT waits for
/// the oldest of four), so the ring replaces the old std::deque: no heap,
/// no pointer chase, and the snapshot count field is now a hard invariant
/// (load rejects n > 4 instead of constructing an over-long window).
class ActRing {
 public:
  void push(Tick t) {
    if (len_ == kCap) {
      slot_[head_] = t;  // overwrite the departing oldest entry
      head_ = static_cast<std::uint8_t>((head_ + 1) & kMask);
    } else {
      slot_[(head_ + len_) & kMask] = t;
      ++len_;
    }
  }
  void popFront() {
    head_ = static_cast<std::uint8_t>((head_ + 1) & kMask);
    --len_;
  }
  Tick front() const { return slot_[head_]; }
  /// Entry `i` in oldest-to-newest order.
  Tick at(int i) const {
    return slot_[(head_ + static_cast<unsigned>(i)) & kMask];
  }
  int size() const { return len_; }
  bool empty() const { return len_ == 0; }
  bool full() const { return len_ == kCap; }
  void clear() { head_ = len_ = 0; }

  /// Legacy byte format: u64 count, then the entries oldest-to-newest.
  void save(ckpt::Writer& w) const;
  /// Fails the reader (sticky, surfaces as an MB-CKP decode error) on a
  /// count above the tFAW capacity: honest writers never emit one, so it
  /// can only come from a corrupt or hostile snapshot.
  void load(ckpt::Reader& r);

 private:
  static constexpr int kCap = 4;
  static constexpr unsigned kMask = 3;
  // Not saved as stored: save() writes the entries oldest to newest through
  // at() and load() rebuilds them through push(), so head_ restarts at 0.
  std::array<Tick, kCap> slot_{};
  std::uint8_t head_ = 0;
  std::uint8_t len_ = 0;
};

/// One rank: shares activation windows and write-to-read turnaround.
/// Holds only rank-level scalars; the per-μbank timestamps live in the
/// channel's parallel arrays.
struct RankState {
  int nextRefreshBank = 0;  // rotation pointer for per-bank refresh

  Tick lastActAt = -1;            // tRRD
  ActRing actWindow;              // last 4 ACT times for tFAW
  Tick lastWriteDataEndAt = -1;   // tWTR before a read CAS
  Tick refreshUntil = 0;          // rank blocked during refresh
  Tick nextRefreshAt = 0;
};

/// One channel: the controller's view of the attached DRAM.
class ChannelState {
 public:
  ChannelState(const dram::Geometry& geom, const dram::TimingParams& timing);

  /// Channel-local index of `da`'s μbank into the parallel arrays:
  /// ((rank * banksPerRank) + bank) * ubanksPerBank + ubank. The controller
  /// caches this per request so the hot path never re-derives it.
  int ubankIndex(const core::DramAddress& da) const {
    return (da.rank * banksPerRank_ + da.bank) * ubanksPerBank_ + da.ubank;
  }

  /// Materialized copy of one μbank's record (tests / diagnostics; the hot
  /// paths read the arrays through the index-based accessors instead).
  UbankState ubank(const core::DramAddress& da) const;

  std::int64_t openRow(int ub) const {
    return openRow_[static_cast<size_t>(ub)];
  }
  bool rowOpen(int ub) const { return openRow_[static_cast<size_t>(ub)] >= 0; }
  bool lazyPending(int ub) const {
    return lazyPending_[static_cast<size_t>(ub)] != 0;
  }

  RankState& rank(const core::DramAddress& da) {
    return ranks_[static_cast<size_t>(da.rank)];
  }
  RankState& rankAt(int idx) { return ranks_[static_cast<size_t>(idx)]; }
  int numRanks() const { return static_cast<int>(ranks_.size()); }
  /// Number of μbanks on the channel == size of the parallel state arrays
  /// (the valid ubankIndex() range).
  int ubankCount() const { return numRanks() * ubanksPerRank_; }

  const dram::TimingParams& timing() const { return timing_; }
  const dram::Geometry& geometry() const { return geom_; }

  // ---- Earliest legal issue time queries -------------------------------
  // The (da, ub, now) overloads take the precomputed ubankIndex; the
  // da-only forms derive it and exist for tests and cold paths.
  Tick earliestAct(const core::DramAddress& da, int ub, Tick now) const;
  Tick earliestPre(const core::DramAddress& da, int ub, Tick now) const;
  /// Earliest CAS; also accounts for the data-bus slot the burst will need.
  Tick earliestCas(const core::DramAddress& da, int ub, bool write, Tick now) const;
  Tick earliestAct(const core::DramAddress& da, Tick now) const {
    return earliestAct(da, ubankIndex(da), now);
  }
  Tick earliestPre(const core::DramAddress& da, Tick now) const {
    return earliestPre(da, ubankIndex(da), now);
  }
  Tick earliestCas(const core::DramAddress& da, bool write, Tick now) const {
    return earliestCas(da, ubankIndex(da), write, now);
  }

  // ---- Command commits (update all affected timestamps) ----------------
  void commitAct(const core::DramAddress& da, int ub, Tick at);
  void commitPre(const core::DramAddress& da, int ub, Tick at);
  /// Returns the tick at which the data burst completes.
  Tick commitCas(const core::DramAddress& da, int ub, bool write, Tick at);
  void commitAct(const core::DramAddress& da, Tick at) {
    commitAct(da, ubankIndex(da), at);
  }
  void commitPre(const core::DramAddress& da, Tick at) {
    commitPre(da, ubankIndex(da), at);
  }
  Tick commitCas(const core::DramAddress& da, bool write, Tick at) {
    return commitCas(da, ubankIndex(da), write, at);
  }

  // ---- Oracle (lazy) page-decision bookkeeping -------------------------
  // Row-state mutations are funnelled through the channel so the open-row
  // bitset always stays in sync with the openRow array.
  enum class LazyOutcome {
    NotPending,  // no unresolved decision on this μbank
    KeptOpen,    // incoming access hits the open row: keeping it was best
    Closed,      // retroactively charged as if PRE had issued at the
                 // earliest legal point (caller reports the oracle PRE)
  };
  /// Resolve an outstanding lazy decision against the incoming access.
  LazyOutcome resolveLazy(const core::DramAddress& da, int ub);
  /// Defer the page decision; `earliestPreAt` is when a PRE could issue.
  void markLazy(int ub, Tick earliestPreAt) {
    lazyPending_[static_cast<size_t>(ub)] = 1;
    earliestPreAt_[static_cast<size_t>(ub)] = earliestPreAt;
  }

  /// Refresh handling: if a refresh is due on any rank at `now`, perform it
  /// (closing the affected rows) and return true. `refreshHook(rank, bank)`
  /// is invoked once per elapsed refresh interval; bank is -1 for an
  /// all-bank refresh and the refreshed bank index in per-bank mode
  /// (energy + protocol-auditor shadow-state updates key off it).
  bool maybeRefresh(Tick now, const std::function<void(int, int)>& refreshHook);
  /// Earliest tick at which any rank wants a refresh.
  Tick nextRefreshDue() const;

  Tick cmdBusFreeAt() const { return cmdBusFreeAt_; }
  Tick dataBusFreeAt() const { return dataBusFreeAt_; }
  /// Fraction of elapsed time the data bus was transferring.
  double dataBusUtilization(Tick elapsed) const;

  bool refreshEnabled = true;
  /// Per-bank refresh (extension, cf. LPDDR per-bank REF): instead of
  /// blocking the whole rank for tRFC, refresh one bank per due interval
  /// for the shorter tRFCpb, rotating across banks. With μbanks this
  /// confines refresh interference to one bank's μbanks at a time.
  bool perBankRefresh = false;

  /// Serializable protocol: geometry/timing are construction parameters,
  /// only the timestamp algebra state travels. Bytes match the legacy
  /// per-μbank record layout exactly (rank-major, then bank, then μbank).
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  Tick fawReadyAt(const RankState& rank) const;

  void setOpenRow(int ub, std::int64_t row) {
    openRow_[static_cast<size_t>(ub)] = row;
    openRowBits_[static_cast<size_t>(ub) >> 6] |= 1ULL << (ub & 63);
  }
  void clearOpenRow(int ub) {
    openRow_[static_cast<size_t>(ub)] = -1;
    openRowBits_[static_cast<size_t>(ub) >> 6] &= ~(1ULL << (ub & 63));
  }
  /// Latest precharge-complete time over the open μbanks in the index range
  /// [lo, hi) (one bank, or a whole rank for all-bank refresh), closing
  /// them as a side effect. Walks the open-row bitset, so fully-precharged
  /// banks cost one word test instead of a struct-per-μbank sweep.
  Tick closeAllRows(int lo, int hi, Tick now);

  dram::Geometry geom_;
  dram::TimingParams timing_;
  int banksPerRank_ = 0;
  int ubanksPerBank_ = 0;
  int ubanksPerRank_ = 0;
  std::vector<RankState> ranks_;

  // ---- SoA μbank state, indexed by ubankIndex() ------------------------
  std::vector<std::int64_t> openRow_;
  std::vector<Tick> actReadyAt_;
  std::vector<Tick> lastActAt_;
  std::vector<Tick> lastReadCasAt_;
  std::vector<Tick> lastWriteDataEndAt_;
  std::vector<Tick> earliestPreAt_;
  std::vector<std::uint8_t> lazyPending_;
  /// One bit per μbank (set = row open), in ubankIndex() order; a bank's
  /// μbanks are contiguous, so a bank spans ubanksPerBank()/64 words (or
  /// shares one word with its neighbours when smaller). Not saved: load()
  /// rebuilds it from the saved openRow_ values.
  std::vector<std::uint64_t> openRowBits_;

  Tick cmdBusFreeAt_ = 0;
  Tick dataBusFreeAt_ = 0;
  Tick lastCasAt_ = -1;  // tCCD across the channel
  int lastCasRank_ = -1; // tRTRS on rank switches
  Tick busyTicks_ = 0;   // accumulated data-burst time
};

}  // namespace mb::mc
