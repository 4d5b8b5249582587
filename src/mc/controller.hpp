// Memory controller: request queues, scheduling, command generation, page
// management, and energy/statistics accounting for one DRAM channel.
//
// Operation (event-driven):
//   - enqueue() decomposes the address, applies write forwarding/coalescing,
//     resolves any outstanding page-policy speculation for the target μbank,
//     and runs kick().
//   - kick() runs arbitration passes until nothing can issue, then schedules
//     its own wake-up at the earliest future candidate, idle-close or
//     refresh tick. With the command bus free, a full pass asks the
//     scheduler to order the per-request candidate commands (the next
//     command each request needs plus its earliest legal issue tick) and
//     commits the winner. With the bus busy — every pass right after an
//     issue — no command can issue, because every earliest tick is bounded
//     below by the bus-free tick, so a wake-only pass computes just the
//     minimum earliest tick and lets the scheduler update its batch. Each
//     pass costs O(queue): the anti-row-steal guard reads a per-μbank table
//     of the oldest row users, built at most once per pass.
//   - After the last column access for a μbank with no pending work, the
//     page-management policy decides whether to keep the row open, close it
//     (an idle precharge is queued), or — for the perfect oracle — leave the
//     decision unresolved to be charged retroactively (§V).
//
// The request queue has a scheduler-visible window of `queueDepth` entries
// (32 by default, §VI-A); requests beyond that wait in an overflow FIFO.
// Writes are posted and drained in bursts between read bundles.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/restore.hpp"
#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "common/flat_map.hpp"
#include "common/shard_mailbox.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/address_map.hpp"
#include "core/page_policy.hpp"
#include "dram/energy.hpp"
#include "mc/command_log.hpp"
#include "mc/device_state.hpp"
#include "mc/request.hpp"
#include "mc/request_arena.hpp"
#include "mc/scheduler.hpp"
#include "mc/trace_audit.hpp"

namespace mb::mc {

struct ControllerConfig {
  int queueDepth = 32;        // scheduler-visible read window (§VI-A)
  int writeHighWatermark = 48;  // enter write-drain mode
  int writeLowWatermark = 16;   // leave write-drain mode
  SchedulerKind scheduler = SchedulerKind::ParBs;
  core::PolicyKind pagePolicy = core::PolicyKind::Open;
  /// Own a protocol auditor for this channel (mc/trace_audit.hpp) and feed
  /// it every command, refresh and oracle precharge as it is committed.
  bool enableTimingCheck = false;
  bool refreshEnabled = true;
  bool perBankRefresh = false;  // extension: rotate tRFCpb refreshes per bank
  /// Optional sink for the auditor's MB-AUD diagnostics. When set (together
  /// with enableTimingCheck), protocol violations are collected here
  /// instead of aborting the process. Not owned; must outlive the
  /// controller.
  analysis::DiagnosticEngine* diagnostics = nullptr;
  /// Optional command-stream sink: fed every committed command (including
  /// policy-initiated idle precharges), refresh interval, and oracle
  /// pseudo-precharge as it happens — the events the auditor checks,
  /// recorded for the offline audit (mbaudit). Not owned.
  CommandLog* commandLog = nullptr;
};

/// Aggregated per-controller statistics snapshot.
struct ControllerStats {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t rowHits = 0;       // serviced with no ACT needed
  std::int64_t rowMisses = 0;     // bank was precharged
  std::int64_t rowConflicts = 0;  // a different row had to be closed first
  std::int64_t forwardedReads = 0;
  std::int64_t specDecisions = 0;
  std::int64_t specCorrect = 0;
  double avgReadLatencyNs = 0.0;
  double avgQueueOccupancy = 0.0;
  double dataBusUtilization = 0.0;
  std::int64_t activations = 0;
  std::int64_t refreshes = 0;
};

class MemoryController {
 public:
  MemoryController(ChannelId id, const dram::Geometry& geom,
                   const dram::TimingParams& timing, const dram::EnergyParams& energy,
                   const core::AddressMap& addressMap, const ControllerConfig& config,
                   EventQueue& eventQueue);

  /// Submit a request. Ownership of the callback transfers; writes complete
  /// immediately from the caller's perspective (posted).
  void enqueue(MemRequest req);

  /// True when the write queue holds a write to `addr`. The one forward
  /// rule: a write to `addr` coalesces with it, and a read of `addr` is
  /// forwarded from it, completing one command transfer (tCMD) after
  /// admission. The sharded engine asks it to cut a window short where such
  /// a read can land (DESIGN.md §14).
  bool holdsWrite(std::uint64_t addr) const;

  /// Number of requests (read + write) not yet fully serviced.
  int outstanding() const {
    return static_cast<int>(readQ_.size() + overflowQ_.size() + writeQ_.size());
  }

  ControllerStats stats() const;

  /// Optional command-stream observer (debugging / tests): invoked for every
  /// ACT/PRE/RD/WR the controller commits, in issue order.
  std::function<void(DramCommand, const core::DramAddress&, Tick)> commandTrace;

  const dram::EnergyMeter& energyMeter() const { return meter_; }
  const ChannelState& channel() const { return channel_; }
  const core::AddressMap& addressMap() const { return map_; }
  ChannelId id() const { return id_; }

  /// Elapsed-time hook used to finalize time-integrated statistics.
  void finalize(Tick simEnd);

  /// Wire the cross-shard message port (sharded engine). When set, read
  /// completions are posted through it instead of being invoked from this
  /// channel's queue; must be wired before the first enqueue() and before
  /// load() when restoring. Null reverts to direct completion.
  void setMailbox(ShardMailbox* mailbox) { mailbox_ = mailbox; }

  /// Rebuilds read-completion callbacks on restore: given the request's
  /// address and core, return the callback the original requester would have
  /// supplied. Must be set before load() when the snapshot carries in-flight
  /// completions; the system wires it to the memory hierarchy.
  std::function<CompletionFn(std::uint64_t addr, CoreId core)> completionFactory;

  /// Serializable protocol (mutable state only; geometry/timing/config come
  /// from construction and are covered by the snapshot's config hash).
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);
  /// Re-arm the controller's pending events (wake-ups and in-flight read
  /// completions) after load(); original event order is preserved via the
  /// saved sequence numbers.
  void reschedule();

  /// Outstanding wake-up events, sorted ascending by tick (tests /
  /// invariants: steady-state idle leaves this empty, a quiescent busy
  /// controller holds at most a handful of transient entries).
  struct KickEvent {
    Tick at = 0;
    EventStamp stamp;
  };
  const std::vector<KickEvent>& pendingKickEvents() const { return kickEvents_; }
  /// In-flight read completions currently occupying pool slots.
  std::size_t liveCompletionCount() const { return liveCompletions_; }

 private:
  struct Pending {
    // Address projections cached at admission so the per-kick candidate and
    // queue scans never re-derive them from the DramAddress fields. They
    // precede `req` so the fields a scan reads sit ahead of the completion
    // callback, not behind it on another cache line.
    std::int64_t flat = -1;  // system-wide flat μbank id (policy/map keys)
    int ub = -1;             // channel-local μbank index (timing arrays)
    bool sawConflict = false;  // a foreign row had to be precharged
    bool sawAct = false;       // an activation was needed
    MemRequest req;
  };
  /// Per-μbank entry of the anti-row-steal table: the oldest arrival among
  /// served requests that want the μbank's open row, over all of them and
  /// over the batch-marked ones only. Valid only while `epoch` equals
  /// rowUserEpoch_, so a new pass invalidates every entry without a clear.
  struct RowUsers {
    std::uint64_t epoch = 0;
    Tick oldestAny = kTickNever;
    Tick oldestMarked = kTickNever;
  };
  struct Speculation {
    core::PageDecision decision;
    std::int64_t row;  // open row when the decision was made
    ThreadId thread;   // thread whose access triggered the decision
  };
  /// Dense per-μbank speculation slot (see speculations_ below).
  struct SpecSlot {
    Speculation s{};
    bool live = false;
  };

  /// In-flight read completion, reified so a checkpoint can capture it. The
  /// event-queue closure captures only the token; the callback itself lives
  /// here and is rebuilt through completionFactory on restore. In mailbox
  /// (sharded) mode the callback is posted to the CPU side at schedule time
  /// and `cb` stays empty; `msgStamp` records the posted message's identity
  /// so a restore can re-post it in the same merge position.
  struct InflightCompletion {
    EventStamp stamp;     // channel-local release event (restore ordering)
    EventStamp msgStamp;  // CPU-bound delivery message (mailbox mode)
    Tick due = 0;
    std::uint64_t addr = 0;
    CoreId core = 0;
    CompletionFn cb;
  };

  void kick();
  void scheduleKick(Tick at);
  void armKick(Tick at);
  void onKickEventFired(Tick at);
  void eraseKickEvent(Tick at);
  void scheduleCompletion(CompletionFn cb, Tick due, std::uint64_t addr,
                          CoreId core);
  int allocCompletionSlot();
  void fireCompletion(int slot, std::uint64_t token);
  void savePending(ckpt::Writer& w, const Pending& p) const;
  ReqHandle loadPending(ckpt::Reader& r);
  void resolveSpeculation(std::int64_t flat, int ub, std::int64_t incomingRow);
  void onRequestServiced(ReqHandle h, Tick dataEnd);
  void maybeSpeculate(const core::DramAddress& da, std::int64_t flat, int ub,
                      ThreadId thread);
  void refillVisibleWindow();
  /// Candidate list over the visible read window (and writes when draining).
  void buildCandidates(Tick now, std::vector<Candidate>& cands,
                       std::vector<ReqHandle>& byCandidate, Tick& minFuture);
  /// Wake-only pass (command bus busy): the minFuture a full pass would
  /// compute, without building candidates.
  Tick earliestWake(Tick now);
  /// minFuture of a full buildCandidates() pass into scratch buffers: the
  /// reference earliestWake() is MB_DCHECKed against.
  Tick fullPassMinFuture(Tick now);
  void issueFor(ReqHandle h, Tick now);
  /// True when a live auditor or a command log watches the committed stream
  /// (the event is built only then).
  bool observed() const { return checker_.has_value() || cfg_.commandLog != nullptr; }
  /// Feed one committed event to the auditor, then to the command log.
  void emit(const CmdEvent& ev);
  /// The next command `p` needs and its earliest legal issue tick, before
  /// the anti-row-steal guard (preBlocked) is applied to a precharge.
  Tick earliestFor(const Pending& p, Tick now, DramCommand& cmdOut) const;
  /// Anti-row-steal guard for a precharge candidate, read from the row-user
  /// table (built on first use in each pass).
  bool preBlocked(const Pending& p);
  void collectRowUsers();
  /// The same guard as a scan of both served queues: the reference the
  /// table is MB_DCHECKed against.
  bool preBlockedByOlderRowUser(const Pending& p) const;
  /// Which queues the scheduler is currently drawing candidates from.
  void serveFlags(bool& reads, bool& writes) const;
  /// Calls fn(handle) over the served queues (the read window, then the
  /// write queue, as serveFlags() selects) until fn returns true; returns
  /// whether it did.
  template <typename Fn>
  bool anyServed(Fn&& fn) const;

  ChannelId id_;
  // Structural, not saved: a restore rebuilds them from the run
  // configuration, which the snapshot's configHash and geometry echo check.
  dram::Geometry geom_;
  core::AddressMap map_;
  ControllerConfig cfg_;
  // The controller schedules itself through its (per-shard) event queue.
  EventQueue& eq_;
  // Read completions leave the channel through the shard mailbox when one
  // is wired (every simulation run); null means completions run directly on
  // eq_, which is how mbbench's mc.ns_per_request probe and the mc unit
  // tests drive a bare controller on one queue.
  ShardMailbox* mailbox_ = nullptr;

  ChannelState channel_;
  dram::EnergyMeter meter_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<core::PagePolicy> policy_;
  std::optional<TraceAuditor> checker_;  // the enableTimingCheck auditor

  // Request records live in a per-controller slot arena; the queues hold
  // generation-tagged handles, so steady-state admission/retire traffic does
  // no per-request heap allocation (the pool grows to the high-water mark of
  // concurrent requests and is then recycled via its free list).
  RequestArena<Pending> pool_;
  std::vector<ReqHandle> readQ_;   // scheduler-visible reads
  std::deque<ReqHandle> overflowQ_;
  std::vector<ReqHandle> writeQ_;
  bool drainingWrites_ = false;

  // Idle precharges requested by the page policy, keyed by flat μbank id.
  // Ordered (not hashed) because kick() iterates it: the scan order must be
  // reproducible across processes for checkpoint/restore equivalence.
  std::map<std::int64_t, core::DramAddress> pendingCloses_;
  // Unresolved speculative page decisions, one slot per channel-local μbank
  // (indexed by ChannelState::ubankIndex). Dense direct indexing replaces a
  // sorted flat map keyed by system-wide flat μbank id: with up to one live
  // entry per idle μbank the map's O(n) insert/erase memmoves dominated the
  // admission path. Serialization still walks slots in index order and
  // writes flat-μbank keys — for a fixed channel, flat id is channelBase +
  // ubankIndex, so the byte stream is identical to the sorted-map layout
  // (index order by construction; ShardDifferentialGrid's restores check it).
  std::vector<SpecSlot> speculations_;
  std::int64_t liveSpeculations_ = 0;
  // Queued requests (read window, overflow and write queue) per
  // channel-local μbank, so retiring a request learns in O(1) whether its
  // μbank still has queued work. Not saved: load() recounts it from the
  // restored queues.
  std::vector<std::int32_t> queuedPerUbank_;

  Tick nextKickAt_ = kTickNever;
  // Tick of the last kick(). No arbitration decision reads it; it keeps its
  // place in the MBCKPT1 controller section because its bytes are part of
  // the snapshot format, so kick() still maintains it.
  Tick lastKickTick_ = -1;
  // Outstanding wake-up events, one per distinct tick (armKick dedupes), so
  // a checkpoint can reify them. Kept as a flat vector sorted ascending by
  // tick: the live set is 0–2 entries in steady state, so insert/erase are
  // effectively O(1) and — unlike the std::map it replaces — arming a kick
  // allocates nothing.
  std::vector<KickEvent> kickEvents_;
  std::uint64_t nextRequestId_ = 1;
  // In-flight read completions in a slot pool with an intrusive free list:
  // tokens stay monotonically increasing (they define checkpoint order and
  // validate that a fired event matches the slot's current occupant), but
  // slots are recycled so steady-state completion traffic stops allocating
  // map nodes. load() rebuilds the free list from the saved live slots.
  struct CompletionSlot {
    bool live = false;
    std::uint64_t token = 0;
    std::int32_t nextFree = -1;
    InflightCompletion c;
  };
  std::vector<CompletionSlot> completionSlots_;
  std::int32_t freeCompletionSlot_ = -1;
  std::size_t liveCompletions_ = 0;
  std::uint64_t nextCompletionToken_ = 0;
  // Arbitration scratch, reused across kick() iterations so the hot loop
  // performs no per-iteration vector allocations.
  std::vector<Candidate> candBuf_;
  std::vector<ReqHandle> byCandidateBuf_;
  // Anti-row-steal table, one entry per channel-local μbank, rebuilt lazily
  // by the first precharge guard of a pass (rowUsersCurrent_ false). Per-pass
  // scratch, not saved: every pass starts with rowUsersCurrent_ false.
  std::vector<RowUsers> rowUsers_;
  std::uint64_t rowUserEpoch_ = 0;
  bool rowUsersCurrent_ = false;

  // Statistics.
  Counter reads_, writes_, rowHits_, rowMisses_, rowConflicts_, forwarded_;
  Counter specDecisions_, specCorrect_;
  Accumulator readLatencyNs_;
  TimeWeightedLevel queueOcc_;
  Tick finalizedAt_ = 0;
};

}  // namespace mb::mc
