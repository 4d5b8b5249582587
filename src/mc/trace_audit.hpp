// The DRAM protocol oracle: one shadow-state auditor of the command stream
// the memory controller commits (the analysis side of mc/command_log.hpp).
//
// A TraceAuditor independently re-derives one channel's device state —
// per-μbank open rows and access history, per-rank activation windows, the
// channel's command/data-bus occupancy — from the events alone, and checks
// every event against:
//
//   protocol    every Table-I constraint (tRCD, tRAS, tRP, tRTP, tWR, tRRD,
//               tFAW, tCCD, tWTR, tCMD, data-burst overlap / tRTRS), plus
//               bank-state legality (ACT only to a closed μbank, PRE/CAS
//               only to an open one, CAS only to the open row)
//   structure   every address field in bounds for the geometry,
//               address-map round-trip consistency (compose∘decompose is
//               the identity for every coordinate tuple), and the CAS burst
//               bounds matching their tAA/tBURST derivation
//
// The same code runs in two places:
//
//   live        with ControllerConfig::enableTimingCheck (`mbsim
//               --timing-check`) every MemoryController owns one auditor
//               for its own channel and feeds it each command it commits,
//               each refresh and each oracle precharge
//   offline     auditCmdTrace replays a recorded MBCMDT1 trace through one
//               auditor per channel (`mbaudit`, `mbsim --audit`), and adds
//               the whole-run checks only a finished trace allows:
//   energy      the total DRAM energy recomputed from the stream alone
//               (per-ACT row energy, per-CAS array/I-O split, per-REF rank
//               fraction, static power over the recorded elapsed time) must
//               match the live dram::EnergyMeter totals carried in the
//               trace trailer, category by category, within tolerance
//
// The auditor shares no code with the device model it checks
// (mc/device_state.*): its shadow state and rules are written from the
// protocol, so a bug in the model's own timing bookkeeping surfaces as a
// finding instead of being invisibly self-consistent.
//
// Violations are stable MB-AUD-0xx diagnostics (registry in DESIGN.md §7)
// carrying the offending event, the violated constraint with its bound and
// earliest legal tick, and the full shadow history of the μbank, rank and
// channel involved. With `diagnostics` attached they are collected there;
// otherwise the rendered diagnostic goes to stderr and the process aborts
// through MB_CHECK — a violation inside a real run is a modelling bug. A
// rejected event does not update the shadow state, so one corrupt record
// produces one primary diagnostic plus bounded follow-on noise rather than
// poisoning the rest of the stream.
//
// The mutation harness at the bottom is the auditor's own self-test: it
// plants a single seeded defect in a known-good trace (an early CAS, a
// retargeted PRE, a tampered burst bound, ...) chosen so that the FIRST
// diagnostic the audit emits is exactly the expected code — proving each
// check actually fires, not merely that clean traces pass.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "ckpt/serialize.hpp"
#include "core/address_map.hpp"
#include "mc/command_log.hpp"

namespace mb::mc {

enum class TraceMutation;

/// Streaming protocol auditor for one channel: one audit() call per
/// committed command, refresh or oracle precharge, in the order they happen.
class TraceAuditor {
 public:
  /// Allocates shadow state for `channel` only. `config`'s geometry must be
  /// valid and its interleave base bit in range (auditCmdTrace reports a
  /// header that is not as MB-AUD-018 before building any auditor).
  TraceAuditor(const CmdTraceConfig& config, int channel);

  /// Check one event of this channel and commit it to the shadow state when
  /// it is legal. Returns false when the event was rejected. `eventIndex`
  /// (the event's position in a recorded trace, -1 live) is echoed in the
  /// diagnostic.
  bool audit(const CmdEvent& ev, std::int64_t eventIndex = -1);

  /// Optional structured sink: violations are reported here (and audit()
  /// returns false) instead of aborting. Not owned. The engine is
  /// run-wide, so sharded auditors must buffer or lock reports.
  analysis::DiagnosticEngine* diagnostics = nullptr;

  /// Serializable protocol: the checking state of a controller snapshot.
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  struct UbankShadow {
    Tick lastActAt = -1;
    Tick lastPreAt = -1;
    Tick lastReadCasAt = -1;
    Tick lastWriteDataEndAt = -1;
    std::int64_t openRow = -1;
    bool seen = false;  // addressed by an ACT/PRE/CAS: part of the snapshot
  };
  struct RankShadow {
    Tick lastActAt = -1;
    std::deque<Tick> actWindow;  // pruned to the tFAW horizon on commit
    Tick lastWriteDataEndAt = -1;
    bool seen = false;
  };

  UbankShadow& ub(int rank, int bank, int ubank) {
    const auto& g = cfg_.geom;
    return ubanks_[static_cast<std::size_t>(
        (rank * g.banksPerRank + bank) * g.ubanksPerBank() + ubank)];
  }
  UbankShadow& ub(const CmdEvent& ev) { return ub(ev.rank, ev.bank, ev.ubank); }
  RankShadow& rk(const CmdEvent& ev) { return ranks_[static_cast<std::size_t>(ev.rank)]; }

  bool checkBounds(const CmdEvent& ev, std::int64_t eventIndex);
  bool reject(analysis::Diagnostic d);
  bool fail(const char* code, const char* constraint, const CmdEvent& ev,
            std::int64_t eventIndex, Tick bound = -1, Tick earliestLegal = -1);
  /// Apply a legal event to the shadow state (protocol commit semantics).
  void commit(const CmdEvent& ev);

  // The mutation harness picks its victims against a commit-only replay.
  friend bool applyTraceMutation(CmdTrace& trace, TraceMutation m, std::uint64_t seed);

  CmdTraceConfig cfg_;
  int channel_;
  core::AddressMap map_;
  std::vector<UbankShadow> ubanks_;  // dense, channel-local μbank order
  std::vector<RankShadow> ranks_;
  Tick lastCmdAt_ = -1;
  Tick lastCasAt_ = -1;
  Tick lastDataEndAt_ = -1;
  int lastCasRank_ = -1;
  std::int64_t commands_ = 0;  // ACT/PRE/RD/WR events audited, rejected ones included
};

// ---- Offline audit of a recorded trace -----------------------------------

struct TraceAuditOptions {
  /// Per-category relative tolerance for the energy recompute (MB-AUD-019).
  /// The live meter and the auditor use the same per-event formulas, so the
  /// only legitimate disagreement is floating-point summation order; 0.1%
  /// is generous by orders of magnitude.
  double energyRelTol = 1e-3;
  /// Expected configuration header (e.g. the one a named preset implies):
  /// any field disagreeing with the trace's own header is reported as
  /// MB-AUD-021 before the replay starts. Not owned.
  const CmdTraceConfig* expectConfig = nullptr;
};

/// What the audit derived from the stream, independent of verdicts.
struct TraceAuditResult {
  std::int64_t eventsAudited = 0;
  /// Events that tripped a protocol/structure check (and therefore did not
  /// update the shadow state).
  std::int64_t commandsRejected = 0;

  // Energy (pJ) and event counts recomputed from the stream alone.
  double actPre = 0.0;
  double rdwr = 0.0;
  double io = 0.0;
  double staticEnergy = 0.0;
  std::int64_t activations = 0;
  std::int64_t casOps = 0;
  std::int64_t refreshes = 0;

  double recomputedTotal() const { return actPre + rdwr + io + staticEnergy; }
};

/// Replay `trace` through one TraceAuditor per channel and report every
/// violation to `diags` (all Error severity except MB-AUD-022, a Warning
/// for a missing end-of-run trailer). The caller decides process fate from
/// diags.hasErrors().
TraceAuditResult auditCmdTrace(const CmdTrace& trace, analysis::DiagnosticEngine& diags,
                               const TraceAuditOptions& opts = {});

// ---- Mutation self-test harness -------------------------------------------

/// Single-defect mutations of a known-good trace. Each kind is paired with
/// the MB-AUD code the audit must emit FIRST when replaying the mutant
/// (traceMutationExpectedCode); later cascade diagnostics are permitted.
enum class TraceMutation {
  CasBeforeTrcd,          // shift a CAS (and its burst) before ACT + tRCD -> 012
  ActBeforeTrp,           // shift an ACT before PRE + tRP                 -> 004
  PreOnIdleUbank,         // retarget a PRE at a precharged μbank          -> 007
  PreBecomesAct,          // rewrite a PRE as an ACT to its own open row   -> 003
  CasRowMismatch,         // point a CAS at a row that is not open         -> 011
  BurstBoundsTampered,    // stretch a CAS data burst past tBURST          -> 016
  ColumnOutOfRange,       // push an ACT's column past linesPerUbankRow    -> 018
  TrailerEnergyTampered,  // inflate the trailer's ACT/PRE energy          -> 019
};
inline constexpr int kTraceMutationCount = 8;

const char* traceMutationName(TraceMutation m);
const char* traceMutationExpectedCode(TraceMutation m);
std::optional<TraceMutation> traceMutationFromName(const std::string& name);

/// Plant mutation `m` in `trace`, choosing among the eligible victim events
/// with `seed`. Victim eligibility is computed against a commit-only shadow
/// replay so that no check ordered before the targeted one fires first —
/// the mutation is guaranteed to surface as its expected code. Returns
/// false (trace untouched) when the trace contains no eligible victim.
bool applyTraceMutation(CmdTrace& trace, TraceMutation m, std::uint64_t seed);

}  // namespace mb::mc
