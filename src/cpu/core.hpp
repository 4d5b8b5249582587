// Trace-driven out-of-order core model (paper §VI-A: 2 GHz, dual-issue,
// 32-entry reorder buffer).
//
// The model tracks the completion time of the last `robSize` instructions in
// a ring. Instruction i may not dispatch before the instruction that
// previously occupied its ROB slot (instruction i - robSize) has completed —
// the in-order-commit window constraint that bounds memory-level
// parallelism. Loads issue to the memory hierarchy at their dispatch time;
// loads within one ROB window therefore overlap, exactly the MLP behaviour
// that determines how much DRAM bank parallelism a core can exploit.
//
// The core suspends (returns to the event loop) when:
//   - the next instruction's ROB slot holds an unresolved load (window full
//     behind a miss),
//   - a dependent (pointer-chase) load's producer is unresolved, or
//   - all load MSHRs are in use.
// It also yields whenever its local clock runs more than `runAheadQuantum`
// ahead of global simulated time, bounding cross-core skew.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ckpt/restore.hpp"
#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "common/types.hpp"
#include "cpu/hierarchy.hpp"
#include "trace/generator.hpp"

namespace mb::cpu {

struct CoreParams {
  int issueWidth = 2;
  int robSize = 32;
  Tick cyclePs = 500;  // 2 GHz
  int execLatCycles = 3;
  int mshrs = 8;                  // outstanding load misses
  int storeBuffer = 16;           // outstanding store misses (RFOs in flight)
  Tick runAheadQuantum = ns(500); // max local-clock lead over global time
  std::int64_t maxInstrs = 3000000;  // instruction slice per core (SimPoint-like)
};

class RobCore {
 public:
  RobCore(CoreId id, const CoreParams& params, trace::TraceSource& trace,
          MemoryHierarchy& hierarchy, EventQueue& eventQueue);

  /// Schedule the core to begin executing at tick 0.
  void start();

  /// True once the instruction budget has been retired (the core keeps
  /// executing afterwards to sustain memory pressure on shared resources
  /// until every core reaches its budget — standard multiprogrammed
  /// methodology; statistics freeze at the budget point).
  bool done() const { return budgetReached_; }
  Tick finishTick() const { return budgetTick_; }
  /// Instructions counted toward IPC (capped at the budget).
  std::int64_t instrsRetired() const {
    return budgetReached_ ? p_.maxInstrs : instrsRetired_;
  }
  std::int64_t recordsDone() const { return recordsDone_; }

  /// Instructions per (core) cycle over the whole run.
  double ipc() const;

  /// Invoked once when the core retires its final instruction.
  void setOnDone(std::function<void()> fn) { onDone_ = std::move(fn); }

  /// The memory-completion callback this core attaches to a hierarchy
  /// access: `tag` >= 0 names the ROB slot of a load, -1 a store drain.
  /// Exposed so a restored snapshot can rebuild pending-waiter callbacks.
  mc::CompletionFn makeMemCallback(int tag);

  /// Serializable protocol (the full execution state of the core; the
  /// attached trace source is serialized separately by the system).
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);
  /// Re-arm the pending step event (if one was outstanding) after load().
  void reschedule();

 private:
  enum class WaitKind { None, RobSlot, Dependence, Mshr, StoreBuffer };

  void step();
  void onMemResponse(int slot, Tick when);
  void onStoreDrained();
  Tick execLatency() const { return static_cast<Tick>(p_.execLatCycles) * p_.cyclePs; }
  bool dispatchCompute();  // returns false when suspended
  bool dispatchMemOp();    // returns false when suspended

  struct Slot {
    Tick completion = 0;
    bool pending = false;
  };

  CoreId id_;
  CoreParams p_;
  // Wiring, not saved: the trace source and the hierarchy save their own
  // sections, and reschedule() re-arms the pending step event.
  trace::TraceSource& trace_;
  MemoryHierarchy& hier_;
  EventQueue& eq_;

  std::vector<Slot> ring_;
  std::uint64_t idx_ = 0;        // instructions dispatched
  Tick dispatchClock_ = 0;
  Tick slotTick_;                // issue-width spacing between dispatches
  int outstandingLoads_ = 0;
  int outstandingStores_ = 0;
  int pendingSlots_ = 0;

  int lastLoadSlot_ = -1;
  Tick lastLoadCompletion_ = 0;
  bool lastLoadPending_ = false;

  WaitKind wait_ = WaitKind::None;
  int waitSlot_ = -1;

  trace::Record cur_{};
  bool haveCur_ = false;
  std::uint32_t gapLeft_ = 0;

  std::int64_t recordsDone_ = 0;
  std::int64_t instrsRetired_ = 0;
  bool budgetReached_ = false;
  bool stepScheduled_ = false;
  Tick stepAt_ = 0;        // tick of the outstanding step event
  EventStamp stepStamp_;   // its event-queue stamp (for restore order)
  Tick budgetTick_ = 0;
  std::function<void()> onDone_;
};

}  // namespace mb::cpu
