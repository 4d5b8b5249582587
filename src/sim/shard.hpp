// Channel-sharded conservative-window execution engine (DESIGN.md §14).
//
// The system decomposes into one EventQueue per memory channel (controller +
// device state + protocol auditor) plus one queue for the whole CPU hierarchy.
// Each iteration of ShardedEngine::run advances every queue through one
// bounded window [t0, t1):
//
//   t0 = earliest pending work anywhere (queue heads and buffered messages),
//   t1 = t0 + lookahead, clamped to a pending checkpoint tick, and cut to
//        t_d + forwardLatency where a read admission due at t_d inside the
//        window may be forwarded from a buffered write.
//
// The lookahead is the CAS → data latency (tAA + tBURST): a CAS-served read
// posts its completion at CAS issue, due when its burst ends. The one faster
// channel → CPU path is a read forwarded from the write queue, which
// completes one command transfer (tCMD, the forward latency) after its
// admission; the cut covers it. So nothing a channel does inside a window
// can affect the CPU side before t1. CPU → channel latency may be zero,
// which is legal because the CPU phase (A) runs to completion *before* the
// channel phase (B) within every window; an admission posted during A with
// due < t1 is delivered and executed in the same window's B, and one that
// may be forwarded lowers t1 while A runs. Cross-window messages are
// buffered in the mailbox until the window whose span covers their due
// tick, then materialized on the destination queue under the EventStamp
// minted at post time — merge order is fixed by the sender, never by
// delivery timing or worker scheduling, so reports, command traces, and
// snapshots are byte-identical at any --shards value (the golden corpus and
// the differential property test pin this).
//
// Phase B splits channels into `participants` shares (channel -> share =
// ch % participants). The calling thread runs share 0 itself; a persistent
// pool of participants - 1 threads runs the rest behind a generation
// barrier. While a run is in progress on a host with a CPU per participant,
// the pool threads spin between windows (a CPU phase lasts microseconds,
// less than a futex wake-up); they park when the run returns, and always
// on an oversubscribed host. With one participant, one channel, or a window
// where fewer than two channels have work, Phase B runs inline on the
// calling thread — same per-channel order either way, so neither the
// adaptive choice nor the barrier policy can affect results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "common/event_queue.hpp"
#include "common/inline_function.hpp"
#include "common/shard_mailbox.hpp"
#include "common/types.hpp"
#include "cpu/hierarchy.hpp"
#include "dram/timing.hpp"
#include "mc/command_log.hpp"
#include "mc/request.hpp"

namespace mb::sim {

/// Per-channel capture buffer for the committed command stream. The shared
/// mc::CommandLog sinks (writer / recorder) assume single-threaded feeding;
/// under sharded execution each controller instead writes into its own
/// buffer, tagged with the *executing event's* ordering key — not the
/// command's own tick, because the perfect-oracle emits retroactive
/// precharge events whose `at` lies before the event that produced them.
/// The engine drains the buffers once per window, k-way merged by
/// (execWhen, execStamp, buffer position), which is exactly the order a
/// single queue would have fired the producing events.
class BufferedCommandLog final : public mc::CommandLog {
 public:
  /// `eq` is the channel queue whose executions feed this buffer; the key of
  /// every entry is read from it at append time.
  explicit BufferedCommandLog(const EventQueue& eq) : eq_(eq) {}

  void onEvent(const mc::CmdEvent& ev) override;

 private:
  friend class ShardedEngine;

  struct Entry {
    Tick execWhen = 0;         // eq.now() of the producing execution
    EventStamp execStamp{};    // eq.currentStamp() of the producing execution
    mc::CmdEvent ev;
  };

  const EventQueue& eq_;
  std::vector<Entry> entries_;
};

struct ShardEngineOptions {
  /// Conservative window span; must be positive and no larger than the
  /// minimum latency of a CAS-served read from CAS issue to its data
  /// (tAA + tBURST for this system).
  Tick lookahead = 1;
  /// Latency of a read forwarded from the write queue, from admission to
  /// data (tCMD); in (0, lookahead]. A window that may hold such a read ends
  /// this long after the read's admission.
  Tick forwardLatency = 1;
  /// Threads sharing the channel phase, the calling thread included
  /// (clamped to the channel count): N starts a pool of N - 1 threads.
  /// 1 = fully inline (no pool).
  int workers = 1;
  /// Global event budget; exceeding it is an MB_CHECK failure (runaway
  /// configuration guard, mirrors the legacy run loop's cap).
  std::uint64_t maxEvents = 2000000000ull;
};

/// The conservative-window scheduler and the mailbox between shards.
///
/// Thread model: run() executes on the calling thread ("main" below — in a
/// sweep this is a serve::runPlan worker). Phase A (CPU queue) and all mailbox
/// bookkeeping run on main; Phase B runs each channel queue on exactly one
/// thread per window (share 0 on main, the other shares on the pool).
/// postEnqueue is main-only (Phase A / restore);
/// postCompletion is called from whichever thread is executing that channel's
/// window — each channel appends to its own lane, so no two threads ever
/// touch the same buffer, and the phase barrier orders the main-side reads
/// after all worker-side writes.
class ShardedEngine final : public ShardMailbox {
 public:
  /// Admission delivery: build the MemRequest for a buffered CPU → channel
  /// message and enqueue it on the channel's controller. Runs on the channel
  /// queue at the message's due tick.
  using DeliverEnqueueFn =
      std::function<void(ChannelId ch, Tick due, std::uint64_t lineAddr,
                         CoreId core, bool isWrite)>;

  /// Forward query: true when channel `ch`'s write queue holds a write to
  /// `lineAddr`, so a read of it admitted now would be forwarded. Called on
  /// the calling thread only, at window start and in Phase A, while no
  /// channel runs. Unset means no channel forwards.
  using WriteQueryFn = std::function<bool(ChannelId ch, std::uint64_t lineAddr)>;

  ShardedEngine(EventQueue& cpuQueue, std::vector<EventQueue*> channelQueues,
                const ShardEngineOptions& opts);
  /// The engine of a run, wired to the hierarchy on `cpuQueue` and to
  /// controller c on `channelQueues[c]`, with windows sized from the
  /// controllers' `timing` and `workers` clamped to [1, channels]. Command
  /// capture (setCommandMerge) is left to the caller.
  ShardedEngine(EventQueue& cpuQueue,
                const std::vector<std::unique_ptr<EventQueue>>& channelQueues,
                cpu::MemoryHierarchy& hier,
                const std::vector<std::unique_ptr<mc::MemoryController>>& mcs,
                const dram::TimingParams& timing, int workers);
  ~ShardedEngine() override;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  void setDeliverEnqueue(DeliverEnqueueFn fn) { deliverEnqueue_ = std::move(fn); }
  void setWriteQuery(WriteQueryFn fn) { writeQuery_ = std::move(fn); }

  /// Enable command capture: `buffers[ch]` is the sink controller `ch` feeds;
  /// drained into `sink` once per window in deterministic merge order.
  void setCommandMerge(std::vector<BufferedCommandLog*> buffers,
                       mc::CommandLog* sink);

  // ShardMailbox
  void postCompletion(ChannelId fromChannel, Tick due, const EventStamp& st,
                      InlineFunction<void(Tick)> cb) override;
  void postEnqueue(ChannelId toChannel, Tick due, const EventStamp& st,
                   std::uint64_t lineAddr, CoreId core, bool isWrite) override;

  /// Drive the simulation to completion. `stopFn` is sampled after every
  /// CPU-phase event; when it flips, the window is truncated at the stop
  /// event's ordering key, so exactly the events a single queue would have
  /// fired before the stop have fired — no more, no less. `checkpointAt` < 0
  /// disables the checkpoint cut; otherwise `onCheckpoint` runs once, at the
  /// first window boundary t0 >= checkpointAt (all queues quiescent, every
  /// in-flight message still in the mailbox and serialized by save()).
  void run(Tick checkpointAt, const std::function<void()>& onCheckpoint,
           const std::function<bool()>& stopFn);

  /// Events fired across all queues. Note: one logical completion is an
  /// event on the channel queue (slot release) plus one on the CPU queue
  /// (data delivery), so this exceeds the legacy single-queue count; it
  /// feeds mbbench's sim.events only, never the canonical report.
  std::uint64_t processedCount() const;

  /// Windows run so far, and those of them the forward rule cut short.
  /// Deterministic (a function of the simulated run, not of the host or the
  /// worker count); they feed RunResult, never the canonical report.
  std::uint64_t windowsRun() const { return windows_; }
  std::uint64_t windowsCut() const { return windowsCut_; }

  /// Latest queue clock — the capture time a snapshot records (equals the
  /// tick of the last fired event, which is shard-invariant).
  Tick maxNow() const;

  /// Checkpoint restore: jump every queue to the snapshot's capture time
  /// (before the components' reschedule() re-arms pending events). A
  /// buffered message due before it fails MB_CHECK.
  void restoreClocks(Tick now);

  /// ENG snapshot section: per-queue stamp counters and the buffered
  /// CPU → channel messages. Channel → CPU messages are NOT serialized —
  /// each corresponds to a live completion slot in some controller, whose
  /// reschedule() re-posts it through the mailbox.
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);
  /// Every buffered CPU → channel message, lane by lane: a restore checks
  /// each against the system it was loaded into.
  void forEachAdmission(const std::function<void(ChannelId ch, std::uint64_t lineAddr,
                                                 CoreId core, bool isWrite)>& fn) const;

 private:
  struct ChannelMsg {  // CPU -> channel, plain data (serializable)
    Tick due;
    EventStamp stamp;
    std::uint64_t lineAddr;
    CoreId core;
    bool write;
  };
  struct CpuMsg {  // channel -> CPU
    Tick due;
    EventStamp stamp;
    mc::CompletionFn cb;
  };

  Tick minNextTime() const;
  /// Whether a read of `lineAddr` admitted to `ch` may be forwarded: the
  /// channel's write queue holds the line, or the lane's inbox carries a
  /// write to it.
  bool mayForward(std::size_t ch, std::uint64_t lineAddr) const;
  /// `t1` cut for the buffered reads due before it that may be forwarded.
  Tick forwardCut(Tick t1) const;
  /// Lower the current window's end to `end` if that is earlier (Phase A).
  void cutWindow(Tick end);
  void deliverToCpu(Tick t1);
  void deliverToChannel(std::size_t ch, Tick t1);
  void runChannelWindow(std::size_t ch, std::uint64_t* events);
  void runChannelPhase(int share);
  void runPhaseB(Tick t1);
  void drainCommands();
  void workerMain(int share);
  void startWorkers();
  void publishPhase();
  void stopWorkers();

  // save() writes the stamp counters, through cpuQ_/chQs_, and each lane's
  // inbox. Nothing else here is simulated state: the options and wiring
  // callbacks are rebuilt by the system, command recording is rejected on
  // checkpointing runs (MB_CHECK in runSimulation), and the counters, the
  // pool and its handshake state restart with every run.
  EventQueue& cpuQ_;
  std::vector<EventQueue*> chQs_;
  ShardEngineOptions opts_;
  DeliverEnqueueFn deliverEnqueue_;
  WriteQueryFn writeQuery_;
  std::vector<BufferedCommandLog*> cmdBufs_;
  mc::CommandLog* cmdSink_ = nullptr;

  /// One channel's mailbox, in one cache line. Main appends to `inbox` in
  /// Phase A and drains `outbox` before it; the thread running the channel
  /// in Phase B materializes the due part of `inbox` on the channel queue
  /// and appends to `outbox`. The phase barrier orders the two sides, and
  /// no two channels share a line, so shares running in parallel never
  /// write a common line, and during a run only the thread running a
  /// channel writes its queue. The cached minima keep minNextTime() from
  /// rescanning every buffered message each window; kTickNever = empty.
  struct alignas(64) Lane {
    std::vector<ChannelMsg> inbox;  // CPU -> channel (serialized by save())
    Tick inboxMinDue = kTickNever;
    std::vector<CpuMsg> outbox;     // channel -> CPU (never serialized, see save())
    Tick outboxMinDue = kTickNever;
  };
  std::vector<Lane> lanes_;  // [ch]
  /// Completion callbacks delivered to the CPU queue. Parked here so the
  /// CPU-queue delivery closure captures only {this, index, due} and stays
  /// within InlineFunction's inline buffer (a full CompletionFn nested
  /// inside a closure would spill to the heap on every completion). A
  /// message is delivered at the start of the window its due tick falls in,
  /// but a Phase-A cut can end that window before it fires, so the arena is
  /// recycled only once arenaLive_ says every entry has fired. No entry is
  /// live at a checkpoint: a delivered message is due before its window's
  /// end, which is at or before the checkpoint tick, so it has fired when
  /// the checkpoint's window starts.
  std::vector<mc::CompletionFn> cpuArena_;
  std::size_t arenaLive_ = 0;  // delivered entries that have not fired yet

  std::uint64_t events_ = 0;         // fired on main (CPU phase + inline B)
  std::uint64_t eventsBase_ = 0;     // events_ at the current window's start
  std::vector<std::uint64_t> shareEvents_;  // per share, current window
  std::uint64_t windows_ = 0;     // windows run
  std::uint64_t windowsCut_ = 0;  // of those, cut short by the forward rule

  // Worker pool: generation barrier that stays awake for a run. Main
  // publishes the window (phaseT1_, stop key, windowEnd_, eventsBase_),
  // bumps phaseGen_, runs share 0, then waits for phaseDone_ to count the
  // pool in. While awake_ (run() in progress and spin_), pool threads spin
  // on phaseGen_ and main spins on phaseDone_, with a CPU-relax hint and a
  // periodic yield; otherwise the pool parks on phaseCv_ and main on
  // doneCv_. The parked_/mainParked_ flags let the signaling side skip the
  // mutex when nobody sleeps, so on a host with a core per participant a
  // window costs two atomic ops and no syscalls. All of it is handshake
  // state: never read by simulation logic, only orders it, hence transient.
  std::vector<std::thread> threads_;
  int participants_ = 1;
  bool spin_ = false;
  std::atomic<bool> awake_{false};
  std::atomic<int> callerCpu_{-1};
  std::atomic<std::uint64_t> phaseGen_{0};
  std::atomic<int> phaseDone_{0};
  std::atomic<bool> shutdown_{false};
  std::vector<std::exception_ptr> shareErr_;
  std::atomic<int> parked_{0};
  std::atomic<bool> mainParked_{false};
  std::mutex phaseMu_;
  std::condition_variable phaseCv_;
  std::mutex doneMu_;
  std::condition_variable doneCv_;

  Tick phaseT1_ = 0;
  bool phaseHasStop_ = false;
  Tick stopWhen_ = 0;
  EventStamp stopStamp_{};
  /// End of the window currently executing. Phase A's loop reads it and
  /// postEnqueue lowers it (the forward cut); in Phase B postCompletion
  /// checks every due against it (a completion inside the horizon would
  /// mean the channel reached the CPU faster than the window allows).
  /// Atomic only so restore-time posts from main and window-time posts from
  /// workers are race-free; initialized to 0 so restore posts (due >= 0)
  /// always pass and never cut.
  std::atomic<Tick> windowEnd_{0};
};

}  // namespace mb::sim
