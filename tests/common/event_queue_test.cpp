#include "common/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace mb {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.scheduleAt(30, [&] { order.push_back(3); });
  eq.scheduleAt(10, [&] { order.push_back(1); });
  eq.scheduleAt(20, [&] { order.push_back(2); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, SameTickFifoOrder) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) eq.scheduleAt(5, [&order, i] { order.push_back(i); });
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue eq;
  int fired = 0;
  eq.scheduleAt(1, [&] {
    ++fired;
    eq.scheduleAfter(9, [&] { ++fired; });
  });
  eq.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), 10);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue eq;
  int fired = 0;
  eq.scheduleAt(5, [&] { ++fired; });
  eq.scheduleAt(15, [&] { ++fired; });
  eq.runUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eq.now(), 10);
  eq.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty) {
  EventQueue eq;
  EXPECT_FALSE(eq.step());
  eq.scheduleAt(0, [] {});
  EXPECT_TRUE(eq.step());
  EXPECT_FALSE(eq.step());
}

TEST(EventQueue, NextEventTime) {
  EventQueue eq;
  EXPECT_EQ(eq.nextEventTime(), kTickNever);
  eq.scheduleAt(42, [] {});
  EXPECT_EQ(eq.nextEventTime(), 42);
}

TEST(EventQueue, ProcessedCountAccumulates) {
  EventQueue eq;
  for (int i = 0; i < 5; ++i) eq.scheduleAt(i, [] {});
  eq.run();
  EXPECT_EQ(eq.processedCount(), 5u);
}

TEST(EventQueue, RunWithEventCapStopsEarly) {
  EventQueue eq;
  int fired = 0;
  for (int i = 0; i < 10; ++i) eq.scheduleAt(i, [&] { ++fired; });
  eq.run(3);
  EXPECT_EQ(fired, 3);
}

TEST(EventQueueDeath, SchedulingInThePastAborts) {
  EventQueue eq;
  eq.scheduleAt(10, [] {});
  eq.run();
  EXPECT_DEATH(eq.scheduleAt(5, [] {}), "check failed");
}

// ---- Inline-callable representation --------------------------------------

TEST(EventQueue, LargeCaptureFallsBackToHeapAndStillFires) {
  // A capture bigger than InlineCallback's in-place buffer exercises the
  // heap-fallback ops table; the payload must survive queue-internal moves
  // (vector growth, heap sifts) intact.
  EventQueue eq;
  std::array<std::uint64_t, 32> payload{};  // 256 B > kInlineSize
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  eq.scheduleAt(7, [payload, &sum] {
    for (const auto v : payload) sum += v;
  });
  // Churn the heap so the large event gets relocated a few times.
  for (int i = 0; i < 64; ++i) eq.scheduleAt(i % 7, [] {});
  eq.run();
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) expect += i * 3 + 1;
  EXPECT_EQ(sum, expect);
}

TEST(EventQueue, MoveOnlyCaptureIsSupported) {
  // std::function required copyable callables; InlineCallback is move-only
  // by design, so events may own their payloads outright.
  EventQueue eq;
  auto owned = std::make_unique<int>(41);
  int got = 0;
  eq.scheduleAt(1, [p = std::move(owned), &got] { got = *p + 1; });
  eq.run();
  EXPECT_EQ(got, 42);
}

TEST(EventQueue, CallbackDestroyedAfterFiring) {
  // The callable (and anything it owns) must be destroyed once fired, not
  // retained until queue teardown — completions can pin large state.
  EventQueue eq;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  eq.scheduleAt(1, [t = std::move(token)] { (void)t; });
  eq.run();
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, UnfiredCallbacksDestroyedWithQueue) {
  std::weak_ptr<int> watch;
  {
    EventQueue eq;
    auto token = std::make_shared<int>(1);
    watch = token;
    eq.scheduleAt(100, [t = std::move(token)] { (void)t; });
  }
  EXPECT_TRUE(watch.expired());
}

// ---- Differential property test ------------------------------------------
//
// The reference implementation is the queue this engine replaced:
// std::function callbacks in a std::priority_queue ordered by (when, seq).
// Its behavior is the specification; the production EventQueue must be
// observationally identical on any operation sequence — same firing order,
// same clock, same sequence numbers, same processed count.

class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;

  std::uint64_t scheduleAt(Tick when, Callback cb) {
    EXPECT_GE(when, now_);
    const std::uint64_t seq = nextSeq_++;
    heap_.push(Event{when, seq, std::move(cb)});
    return seq;
  }
  std::uint64_t scheduleAfter(Tick delay, Callback cb) {
    return scheduleAt(now_ + delay, std::move(cb));
  }
  void restoreClock(Tick now) { now_ = now; }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  Tick now() const { return now_; }
  Tick nextEventTime() const { return heap_.empty() ? kTickNever : heap_.top().when; }
  bool step() {
    if (heap_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = ev.when;
    ev.cb();
    ++processed_;
    return true;
  }
  void run(std::uint64_t maxEvents = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < maxEvents && step()) ++n;
  }
  void runUntil(Tick until) {
    while (!heap_.empty() && heap_.top().when <= until) step();
    if (now_ < until) now_ = until;
  }
  std::uint64_t processedCount() const { return processed_; }

 private:
  struct Event {
    Tick when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  Tick now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
};

// Drives one queue through a seeded random program. Every fired event logs
// (id, fire tick); a third of events spawn a child on firing, so scheduling
// from inside callbacks — the simulator's dominant pattern — is covered.
// The production queue returns full EventStamps; the reference returns bare
// sequence numbers. On a single queue the stamp's counter IS the legacy seq
// (one monotone allocator), which is exactly the equivalence this test pins.
inline std::uint64_t seqOf(const EventStamp& st) { return st.counter; }
inline std::uint64_t seqOf(std::uint64_t seq) { return seq; }

template <typename Queue>
struct DifferentialDriver {
  Queue q;
  std::vector<std::pair<int, Tick>> log;
  std::vector<std::uint64_t> seqs;
  int nextChildId = 1000000;

  void schedule(Tick when, int id, bool spawnChild) {
    seqs.push_back(seqOf(q.scheduleAt(when, [this, id, spawnChild] {
      log.emplace_back(id, q.now());
      if (spawnChild) {
        const int child = nextChildId++;
        const Tick childDelay = (id % 5) * 3;
        seqs.push_back(seqOf(q.scheduleAfter(
            childDelay, [this, child] { log.emplace_back(child, q.now()); })));
      }
    })));
  }

  void runProgram(std::uint64_t seed) {
    Rng rng(seed);
    q.restoreClock(17);  // start from a restored clock, not tick 0
    int id = 0;
    for (int op = 0; op < 4000; ++op) {
      const auto kind = rng.nextBounded(10);
      if (kind < 5) {
        // Burst of same-tick events: the FIFO tie-break is the
        // determinism-critical property.
        const Tick at = q.now() + static_cast<Tick>(rng.nextBounded(40));
        const int burst = 1 + static_cast<int>(rng.nextBounded(4));
        for (int b = 0; b < burst; ++b)
          schedule(at, id++, rng.nextBool(0.33));
      } else if (kind < 7) {
        q.step();
      } else if (kind < 9) {
        q.runUntil(q.now() + static_cast<Tick>(rng.nextBounded(25)));
      } else {
        q.run(rng.nextBounded(6));
      }
    }
    q.run();  // drain
  }
};

TEST(EventQueueDifferential, MatchesReferenceImplementation) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 99ull, 4242ull}) {
    DifferentialDriver<EventQueue> prod;
    DifferentialDriver<ReferenceEventQueue> ref;
    prod.runProgram(seed);
    ref.runProgram(seed);
    ASSERT_EQ(prod.log.size(), ref.log.size()) << "seed " << seed;
    EXPECT_EQ(prod.log, ref.log) << "seed " << seed;
    EXPECT_EQ(prod.seqs, ref.seqs) << "seed " << seed;
    EXPECT_EQ(prod.q.now(), ref.q.now()) << "seed " << seed;
    EXPECT_EQ(prod.q.processedCount(), ref.q.processedCount()) << "seed " << seed;
    EXPECT_TRUE(prod.q.empty());
  }
}

TEST(EventQueueDifferential, ReseedAfterDrainContinuesIdentically) {
  // Drain both queues fully, then keep scheduling from the drained state —
  // seq numbering and clock must keep advancing identically (the pattern a
  // checkpoint-restored component relies on after its reschedule()).
  DifferentialDriver<EventQueue> prod;
  DifferentialDriver<ReferenceEventQueue> ref;
  prod.runProgram(7);
  ref.runProgram(7);
  ASSERT_TRUE(prod.q.empty() && ref.q.empty());
  for (int round = 0; round < 3; ++round) {
    const Tick base = prod.q.now();
    EXPECT_EQ(base, ref.q.now());
    for (int i = 0; i < 20; ++i) {
      prod.schedule(base + (i % 4), 5000 + round * 100 + i, i % 2 == 0);
      ref.schedule(base + (i % 4), 5000 + round * 100 + i, i % 2 == 0);
    }
    prod.q.run();
    ref.q.run();
    EXPECT_EQ(prod.log, ref.log) << "round " << round;
    EXPECT_EQ(prod.seqs, ref.seqs) << "round " << round;
  }
}

// ---- EventStamp semantics ------------------------------------------------

TEST(EventStamp, ScheduleStampedKeepsForeignStampAndBumpsOwnCounter) {
  EventQueue eq;
  eq.setShardId(2);
  // A foreign shard's stamp passes through untouched: this queue's counter
  // allocator must not be disturbed by cross-shard deliveries.
  EventStamp foreign{0, 0, 5, -1, -1, 0};
  eq.scheduleStamped(0, foreign, [] {});
  EXPECT_EQ(eq.nextCounter(), 0u);
  // An own-shard stamp (checkpoint restore) max-bumps the allocator so fresh
  // stamps can never collide with restored ones.
  EventStamp own{0, 2, 9, -1, -1, 0};
  eq.scheduleStamped(0, own, [] {});
  EXPECT_EQ(eq.nextCounter(), 10u);
  EXPECT_EQ(*eq.peekStamp(), foreign);  // counter 5 sorts before counter 9
}

TEST(EventStamp, CurrentStampIsTheExecutingEventsStamp) {
  EventQueue eq;
  EventStamp seen{};
  const EventStamp st = eq.scheduleAt(3, [&] { seen = eq.currentStamp(); });
  eq.run();
  EXPECT_EQ(seen, st);
}

TEST(EventStamp, ChildrenCarryParentIdentity) {
  // Events scheduled inside an execution record that execution's identity
  // triple — the property the cross-shard merge order is built on.
  EventQueue eq;
  eq.setShardId(4);
  EventStamp childStamp{};
  const EventStamp parent = eq.scheduleAt(2, [&] {
    childStamp = eq.scheduleAt(7, [] {});
  });
  eq.run();
  EXPECT_EQ(childStamp.parentSchedTick, parent.schedTick);
  EXPECT_EQ(childStamp.parentShard, parent.srcShard);
  EXPECT_EQ(childStamp.parentCounter, parent.counter);
  EXPECT_EQ(childStamp.srcShard, 4);
  EXPECT_EQ(childStamp.schedTick, 2);
}

TEST(EventStamp, MergeOrderPrefersEarlierParentOverCounter) {
  // Two same-tick stamps scheduled at the same tick by different shards:
  // the one whose parent fired earlier sorts first, regardless of the raw
  // counters — this is how the sharded merge reproduces serial chronology.
  EventStamp earlyParent{10, 0, 7, 5, 0, 1};
  EventStamp lateParent{10, 1, 2, 8, 1, 0};
  EXPECT_TRUE(stampBefore(earlyParent, lateParent));
  EXPECT_FALSE(stampBefore(lateParent, earlyParent));
}

}  // namespace
}  // namespace mb
