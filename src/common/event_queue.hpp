// Discrete-event simulation core: a time-ordered queue of callbacks.
//
// Determinism: every event carries an EventStamp that totally orders it
// against all other events in the system — including events stamped by a
// *different* shard's queue (cross-channel messages in the sharded engine).
// The stamp records where the event was scheduled (tick + shard + a
// per-shard counter) and during which event execution it was scheduled (the
// parent execution's identity triple). Lexicographic comparison over
//   (when, schedTick, parentSchedTick, parentShard, parentCounter,
//    counter, srcShard)
// reproduces the classic single-queue (when, seq) insertion order exactly
// when one queue stamps everything, and extends it to a deterministic,
// shard-count-independent merge order when several queues stamp
// concurrently (DESIGN.md §14 has the ordering argument).
//
// Hot-path representation: events carry an InlineCallback (small-buffer
// callable, no per-event heap allocation for the `[this, token]`-shaped
// lambdas the simulator schedules) and live in a hand-rolled binary min-heap
// over a contiguous vector. The hand-rolled heap exists because
// std::priority_queue exposes only a const top() — popping the callable out
// required a const_cast — and because sifting with an explicit hole moves
// each displaced event once instead of swapping (three moves) per level.
// A differential property test against a std::priority_queue reference
// implementation (tests/common/event_queue_test.cpp) pins the equivalence
// with the legacy (when, seq) rule on a single queue.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/inline_function.hpp"
#include "common/types.hpp"

namespace mb {

/// Globally unique, totally ordered identity of one scheduled event.
///
/// (schedTick, srcShard, counter) identifies the scheduling itself: the
/// queue clock when the event was created, the stamping queue's shard id,
/// and that queue's monotone counter. (parentSchedTick, parentShard,
/// parentCounter) is the same triple for the event *execution* inside which
/// the scheduling happened — the causal parent — or (-1, -1, 0) for events
/// created outside any execution (simulation setup). Carrying the parent
/// makes cross-shard merge order match the serial engine: two events due at
/// the same tick that were scheduled at the same tick by different shards
/// are ordered by when their parents fired, which is exactly the serial
/// scheduling chronology.
struct EventStamp {
  Tick schedTick = 0;
  std::int32_t srcShard = 0;
  std::uint64_t counter = 0;
  Tick parentSchedTick = -1;
  std::int32_t parentShard = -1;
  std::uint64_t parentCounter = 0;

  friend bool operator==(const EventStamp& a, const EventStamp& b) {
    return a.schedTick == b.schedTick && a.srcShard == b.srcShard &&
           a.counter == b.counter && a.parentSchedTick == b.parentSchedTick &&
           a.parentShard == b.parentShard && a.parentCounter == b.parentCounter;
  }
  friend bool operator!=(const EventStamp& a, const EventStamp& b) { return !(a == b); }
};

/// Deterministic merge order over stamps (ties already split by `when`
/// before this is consulted). Scheduling chronology first (schedTick), then
/// the causal parent's identity (parents fire in this same order, so
/// children scheduled by earlier executions sort first), then the
/// within-execution counter. srcShard last: unreachable for stamps minted
/// by a running simulation (the parent triple plus counter is already
/// unique), it only breaks ties between setup-time stamps from different
/// queues in hand-built fixtures.
inline bool stampBefore(const EventStamp& a, const EventStamp& b) {
  if (a.schedTick != b.schedTick) return a.schedTick < b.schedTick;
  if (a.parentSchedTick != b.parentSchedTick) return a.parentSchedTick < b.parentSchedTick;
  if (a.parentShard != b.parentShard) return a.parentShard < b.parentShard;
  if (a.parentCounter != b.parentCounter) return a.parentCounter < b.parentCounter;
  if (a.counter != b.counter) return a.counter < b.counter;
  return a.srcShard < b.srcShard;
}

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Full event ordering key: due tick, then stamp.
  static bool keyBefore(Tick aWhen, const EventStamp& a, Tick bWhen,
                        const EventStamp& b) {
    if (aWhen != bWhen) return aWhen < bWhen;
    return stampBefore(a, b);
  }

  /// Shard identity baked into every stamp this queue mints. Must be set
  /// before the queue schedules or runs anything (system construction).
  void setShardId(std::int32_t id) {
    MB_CHECK_MSG(heap_.empty() && processed_ == 0 && nextCounter_ == 0,
                 "setShardId on a queue that already ran");
    shardId_ = id;
  }
  std::int32_t shardId() const { return shardId_; }

  /// Schedule `cb` to run at absolute time `when` (>= now()). Returns the
  /// stamp assigned to the event: components that support checkpointing
  /// record it so a restore can re-schedule pending events with their
  /// original merge position (scheduleStamped).
  EventStamp scheduleAt(Tick when, Callback cb) {
    MB_CHECK_MSG(when >= now_, "scheduling into the past: when=%lldps now=%lldps",
                 static_cast<long long>(when), static_cast<long long>(now_));
    const EventStamp st = issueStamp();
    heap_.push_back(Event{when, st, std::move(cb)});
    siftUp(heap_.size() - 1);
    return st;
  }

  EventStamp scheduleAfter(Tick delay, Callback cb) {
    return scheduleAt(now_ + delay, std::move(cb));
  }

  /// Mint a stamp in this queue's ordering without scheduling a local
  /// event — the identity a cross-shard message carries to its destination
  /// queue. The message sorts over there exactly where a locally scheduled
  /// event with this stamp would have.
  EventStamp issueStamp() {
    return EventStamp{now_,
                      shardId_,
                      nextCounter_++,
                      parent_.schedTick,
                      parent_.srcShard,
                      parent_.counter};
  }

  /// Insert an event that already owns a stamp: cross-shard message
  /// delivery, and checkpoint restore (re-arming a pending event under its
  /// original stamp so merge order survives the round trip). Keeps the
  /// local counter ahead of any own-shard stamp that passes through, so
  /// later fresh stamps never collide with restored ones.
  void scheduleStamped(Tick when, const EventStamp& st, Callback cb) {
    MB_CHECK_MSG(when >= now_, "scheduling into the past: when=%lldps now=%lldps",
                 static_cast<long long>(when), static_cast<long long>(now_));
    if (st.srcShard == shardId_ && st.counter >= nextCounter_) {
      nextCounter_ = st.counter + 1;
    }
    heap_.push_back(Event{when, st, std::move(cb)});
    siftUp(heap_.size() - 1);
  }

  /// Checkpoint restore: jump the clock to the snapshot's capture time
  /// before pending events are re-scheduled. Only legal on a queue that has
  /// not run yet and holds no events.
  void restoreClock(Tick now) {
    MB_CHECK_MSG(heap_.empty() && processed_ == 0,
                 "restoreClock on a queue that already ran");
    MB_CHECK(now >= 0);
    now_ = now;
  }

  /// Checkpoint restore of the stamp counter (ENG section). scheduleStamped
  /// already max-bumps past restored own-shard stamps; this additionally
  /// covers counters consumed by events that fired before the capture.
  void restoreNextCounter(std::uint64_t c) {
    if (c > nextCounter_) nextCounter_ = c;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Counter the next stamp minted here will carry. The sharded engine's
  /// checkpoint (ENG section) saves it, and restoreNextCounter puts it back.
  std::uint64_t nextCounter() const { return nextCounter_; }
  Tick now() const { return now_; }
  Tick nextEventTime() const { return heap_.empty() ? kTickNever : heap_[0].when; }
  /// Stamp of the earliest pending event (null when empty). With
  /// nextEventTime() this is the head's full ordering key — the sharded
  /// engine uses it to run a bounded prefix of a window (stop-key cut).
  const EventStamp* peekStamp() const {
    return heap_.empty() ? nullptr : &heap_[0].stamp;
  }

  /// Stamp of the event currently (or most recently) executing. Together
  /// with now() this is the execution's position in the global merge order —
  /// the sort key the sharded engine's command-log merge uses to interleave
  /// per-channel streams exactly as a single queue would have fired them.
  const EventStamp& currentStamp() const { return current_; }

  /// Pop and run the earliest event. Returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    // Move the event out before running it: the callback may schedule more.
    Event ev = std::move(heap_[0]);
    removeTop();
    now_ = ev.when;
    // Everything the callback schedules is causally tagged with this
    // execution's identity; see EventStamp.
    parent_ = ExecRef{ev.stamp.schedTick, ev.stamp.srcShard, ev.stamp.counter};
    current_ = ev.stamp;
    ev.cb();
    ++processed_;
    return true;
  }

  /// Run until empty or until more than `maxEvents` have fired.
  void run(std::uint64_t maxEvents = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < maxEvents && step()) ++n;
  }

  /// Run until simulated time would exceed `until` (events at `until` run).
  void runUntil(Tick until) {
    while (!heap_.empty() && heap_[0].when <= until) step();
    if (now_ < until) now_ = until;
  }

  std::uint64_t processedCount() const { return processed_; }

 private:
  struct Event {
    Tick when;
    EventStamp stamp;
    Callback cb;
  };
  /// Identity triple of the event execution currently (or most recently)
  /// running on this queue; root sentinel before the first step.
  struct ExecRef {
    Tick schedTick = -1;
    std::int32_t srcShard = -1;
    std::uint64_t counter = 0;
  };

  static bool before(const Event& a, const Event& b) {
    return keyBefore(a.when, a.stamp, b.when, b.stamp);
  }

  // Hole-based sift: carry the displaced event in a local and move each
  // ancestor/descendant down/up once, writing the carried event into the
  // final hole.
  void siftUp(std::size_t i) {
    Event ev = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(ev, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(ev);
  }

  void removeTop() {
    Event last = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], last)) break;
      heap_[i] = std::move(heap_[child]);
      i = child;
    }
    heap_[i] = std::move(last);
  }

  std::vector<Event> heap_;
  Tick now_ = 0;
  std::int32_t shardId_ = 0;
  std::uint64_t nextCounter_ = 0;
  std::uint64_t processed_ = 0;
  ExecRef parent_{};
  EventStamp current_{};
};

}  // namespace mb
