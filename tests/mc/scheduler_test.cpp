#include "mc/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace mb::mc {
namespace {

// `pos` is the candidate's read-window position: the order its request
// entered the scheduler through onEnqueue.
Candidate cand(int pos, std::uint64_t id, ThreadId thread, Tick arrival, Tick earliest,
               bool rowHit) {
  Candidate c;
  c.viewPos = pos;
  c.id = id;
  c.thread = thread;
  c.arrival = arrival;
  c.earliestIssue = earliest;
  c.rowHit = rowHit;
  return c;
}

MemRequest req(std::uint64_t id, ThreadId thread, Tick arrival) {
  MemRequest r;
  r.id = id;
  r.thread = thread;
  r.arrival = arrival;
  return r;
}

/// The key-order pick, checked against the predicate scan on the same
/// list: both positions must agree.
Scheduler::PickPair pickChecked(const Scheduler& s, const std::vector<Candidate>& cands,
                                Tick now) {
  std::vector<Candidate> stamped = cands;
  const Scheduler::PickPair ref = s.referencePick(stamped, now);
  const Scheduler::PickPair got = s.pick(cands, now);
  EXPECT_EQ(got.issuable, ref.issuable) << s.name();
  EXPECT_EQ(got.overall, ref.overall) << s.name();
  return got;
}

int pickIssuable(const Scheduler& s, const std::vector<Candidate>& cands, Tick now) {
  return pickChecked(s, cands, now).issuable;
}

TEST(SchedulerKinds, ConstructsAllKinds) {
  for (auto kind : {SchedulerKind::Fcfs, SchedulerKind::FrFcfs, SchedulerKind::ParBs}) {
    const Scheduler s(kind);
    EXPECT_EQ(s.kind(), kind);
    EXPECT_EQ(s.name(), schedulerKindName(kind));
  }
}

TEST(Fcfs, PicksOldestIssuable) {
  const Scheduler s(SchedulerKind::Fcfs);
  std::vector<Candidate> cands{
      cand(0, 1, 0, 100, 0, true),
      cand(1, 2, 0, 50, 0, false),
      cand(2, 3, 0, 75, 0, true),
  };
  EXPECT_EQ(pickIssuable(s, cands, 0), 1);
}

TEST(Fcfs, SkipsFutureCandidates) {
  const Scheduler s(SchedulerKind::Fcfs);
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 500, false),
      cand(1, 2, 0, 90, 0, false),
  };
  EXPECT_EQ(pickIssuable(s, cands, 100), 1);
}

TEST(Fcfs, ReturnsMinusOneWhenNothingIssuable) {
  const Scheduler s(SchedulerKind::Fcfs);
  std::vector<Candidate> cands{cand(0, 1, 0, 10, 500, false)};
  EXPECT_EQ(pickIssuable(s, cands, 100), -1);
  EXPECT_EQ(pickIssuable(s, cands, 500), 0);
}

TEST(FrFcfs, PrefersRowHitOverAge) {
  const Scheduler s(SchedulerKind::FrFcfs);
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 0, false),  // older conflict
      cand(1, 2, 0, 90, 0, true),   // younger hit
  };
  EXPECT_EQ(pickIssuable(s, cands, 100), 1);
}

TEST(FrFcfs, AgeBreaksTiesAmongHits) {
  const Scheduler s(SchedulerKind::FrFcfs);
  std::vector<Candidate> cands{
      cand(0, 1, 0, 90, 0, true),
      cand(1, 2, 0, 10, 0, true),
  };
  EXPECT_EQ(pickIssuable(s, cands, 100), 1);
}

TEST(ParBs, MarkedBeatsUnmarkedRowHit) {
  Scheduler s(SchedulerKind::ParBs, /*markingCap=*/1);
  // Queue: thread 0 has an old request (gets marked), thread 1's second
  // request arrives after batch formation and is unmarked.
  s.onEnqueue(req(1, 0, 10));
  std::vector<Candidate> round1{cand(0, 1, 0, 10, 0, false)};
  EXPECT_TRUE(s.formBatchIfDrained());
  EXPECT_EQ(pickIssuable(s, round1, 100), 0);
  EXPECT_TRUE(s.isMarked(1));

  s.onEnqueue(req(2, 1, 20));
  EXPECT_FALSE(s.formBatchIfDrained());  // the batch has not drained
  std::vector<Candidate> round2{
      cand(0, 1, 0, 10, 0, false),  // marked conflict
      cand(1, 2, 1, 20, 0, true),   // unmarked hit
  };
  EXPECT_EQ(pickIssuable(s, round2, 100), 0);
}

TEST(ParBs, NewBatchFormsWhenMarkedDrains) {
  Scheduler s(SchedulerKind::ParBs, 2);
  s.onEnqueue(req(1, 0, 10));
  EXPECT_TRUE(s.formBatchIfDrained());
  std::vector<Candidate> c1{cand(0, 1, 0, 10, 0, false)};
  (void)pickIssuable(s, c1, 100);
  EXPECT_TRUE(s.isMarked(1));
  s.onDequeue(0, 1);
  EXPECT_FALSE(s.isMarked(1));

  s.onEnqueue(req(2, 1, 20));
  EXPECT_TRUE(s.formBatchIfDrained());
  std::vector<Candidate> c2{cand(0, 2, 1, 20, 0, false)};
  (void)pickIssuable(s, c2, 100);
  EXPECT_TRUE(s.isMarked(2));
}

TEST(ParBs, MarkingCapLimitsPerThread) {
  Scheduler s(SchedulerKind::ParBs, 2);
  for (std::uint64_t i = 1; i <= 5; ++i) s.onEnqueue(req(i, 0, static_cast<Tick>(i)));
  std::vector<Candidate> cands;
  for (std::uint64_t i = 1; i <= 5; ++i)
    cands.push_back(cand(static_cast<int>(i - 1), i, 0, static_cast<Tick>(i), 0, false));
  s.formBatchIfDrained();
  (void)pickIssuable(s, cands, 100);
  int marked = 0;
  for (std::uint64_t i = 1; i <= 5; ++i) marked += s.isMarked(i) ? 1 : 0;
  EXPECT_EQ(marked, 2);
  EXPECT_TRUE(s.isMarked(1));  // oldest first
  EXPECT_TRUE(s.isMarked(2));
}

TEST(ParBs, ShortestJobThreadRankedFirst) {
  Scheduler s(SchedulerKind::ParBs, 5);
  // Thread 0: three requests; thread 1: one request. All arrive before the
  // batch forms; thread 1 (fewer marked) should be served first among
  // equally-old, equally-row-state candidates.
  for (std::uint64_t i = 1; i <= 3; ++i) s.onEnqueue(req(i, 0, 10));
  s.onEnqueue(req(4, 1, 10));
  s.formBatchIfDrained();
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 0, false),
      cand(1, 2, 0, 10, 0, false),
      cand(2, 3, 0, 10, 0, false),
      cand(3, 4, 1, 10, 0, false),
  };
  EXPECT_EQ(pickIssuable(s, cands, 100), 3);
}

TEST(ParBs, RowHitStillWinsWithinBatch) {
  Scheduler s(SchedulerKind::ParBs, 5);
  s.onEnqueue(req(1, 0, 10));
  s.onEnqueue(req(2, 0, 20));
  s.formBatchIfDrained();
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 0, false),
      cand(1, 2, 0, 20, 0, true),
  };
  EXPECT_EQ(pickIssuable(s, cands, 100), 1);
}

TEST(ParBs, EmptyCandidatesReturnsMinusOne) {
  Scheduler s(SchedulerKind::ParBs);
  EXPECT_FALSE(s.formBatchIfDrained());  // nothing to mark
  std::vector<Candidate> cands;
  EXPECT_EQ(pickIssuable(s, cands, 0), -1);
}

// The rank is the thread's marked count at pick time: it falls as the
// thread's marked requests leave the window, and a write is never marked.
TEST(ParBs, RankFollowsDequeuesAndWritesStayUnmarked) {
  Scheduler s(SchedulerKind::ParBs, 5);
  for (std::uint64_t i = 1; i <= 3; ++i) s.onEnqueue(req(i, 0, 10));
  s.onEnqueue(req(4, 1, 10));
  s.onEnqueue(req(5, 1, 10));
  s.formBatchIfDrained();
  // Thread 0 holds 3 marks, thread 1 holds 2: thread 1 ranks first.
  std::vector<Candidate> cands{cand(0, 1, 0, 10, 0, false), cand(3, 4, 1, 10, 0, false)};
  EXPECT_EQ(pickIssuable(s, cands, 100), 1);
  s.onDequeue(1, 2);  // thread 0 down to 2 marks: a tie, so age, then position
  cands = {cand(0, 1, 0, 10, 0, false), cand(2, 4, 1, 10, 0, false)};
  EXPECT_EQ(pickIssuable(s, cands, 100), 0);
  s.onDequeue(0, 1);  // thread 0 down to 1 mark
  cands = {cand(1, 4, 1, 10, 0, false), cand(0, 3, 0, 10, 0, false)};
  EXPECT_EQ(pickIssuable(s, cands, 100), 1);
  // An older write row hit still loses to every marked read.
  cands.push_back(cand(-1, 99, 0, 1, 0, true));
  EXPECT_EQ(pickIssuable(s, cands, 100), 1);
}

TEST(SchedulerKindName, AllNamed) {
  EXPECT_EQ(schedulerKindName(SchedulerKind::Fcfs), "FCFS");
  EXPECT_EQ(schedulerKindName(SchedulerKind::FrFcfs), "FR-FCFS");
  EXPECT_EQ(schedulerKindName(SchedulerKind::ParBs), "PAR-BS");
}

// ---- Tie-break determinism -----------------------------------------------
//
// When candidates are indistinguishable under a policy's whole preference
// chain, the FIRST candidate in scan order must win — a strict comparison
// never replaces the running best on a tie. This anchors bitwise
// reproducibility: the controller walks requests in queue order, so the
// tie-break is "oldest queue position", independent of container or
// optimization-level accidents.

TEST(TieBreaks, FcfsEqualArrivalKeepsFirstScanned) {
  const Scheduler s(SchedulerKind::Fcfs);
  std::vector<Candidate> cands{
      cand(0, 7, 0, 50, 0, false),
      cand(1, 3, 1, 50, 0, true),  // same arrival, different everything else
      cand(2, 9, 2, 50, 0, false),
  };
  EXPECT_EQ(pickIssuable(s, cands, 100), 0);
}

TEST(TieBreaks, FrFcfsEqualRowHitEqualArrivalKeepsFirstScanned) {
  const Scheduler s(SchedulerKind::FrFcfs);
  std::vector<Candidate> allHits{
      cand(0, 1, 0, 50, 0, true),
      cand(1, 2, 1, 50, 0, true),
  };
  EXPECT_EQ(pickIssuable(s, allHits, 100), 0);
  std::vector<Candidate> allMisses{
      cand(0, 1, 0, 50, 0, false),
      cand(1, 2, 1, 50, 0, false),
  };
  EXPECT_EQ(pickIssuable(s, allMisses, 100), 0);
}

TEST(TieBreaks, ParBsFullyTiedKeepsFirstScanned) {
  Scheduler s(SchedulerKind::ParBs, 5);
  // Same thread, same arrival, same row state: marked flags and thread rank
  // are identical, so the full chain ties and index 0 must win.
  s.onEnqueue(req(1, 0, 50));
  s.onEnqueue(req(2, 0, 50));
  s.formBatchIfDrained();
  std::vector<Candidate> cands{
      cand(0, 1, 0, 50, 0, true),
      cand(1, 2, 0, 50, 0, true),
  };
  EXPECT_EQ(pickIssuable(s, cands, 100), 0);
}

// ---- Key order against the predicate scan ---------------------------------
//
// The controller ranks requests by one integer key per scheduler; the
// comparison predicates it replaced stay as referencePick. On seeded
// windows that mix marked and unmarked PAR-BS reads (marked at formation,
// unmarked when they arrive after it, ranks lowered by dequeues), writes,
// requests the guard left out, arrival ties, arrivals at the key's limit,
// and ready, near, far and past-horizon earliest ticks, both must pick the
// same issuable and overall positions.

struct Xorshift {
  std::uint64_t x;
  std::uint64_t operator()(std::uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  }
};

TEST(KeyOrder, PicksWhatThePredicateScanPicksOnAllSchedulers) {
  constexpr Tick kNow = 10000;
  int parBsMixed = 0;
  for (auto kind : {SchedulerKind::Fcfs, SchedulerKind::FrFcfs, SchedulerKind::ParBs}) {
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      Xorshift next{seed * 2654435761u + 1};
      Scheduler s(kind, static_cast<int>(next(5)) + 1);
      std::vector<MemRequest> window;  // mirrors the scheduler's view
      std::uint64_t id = 0;
      const auto arrival = [&]() -> Tick {
        if (next(16) == 0) return kMaxArrival - static_cast<Tick>(next(3));
        return static_cast<Tick>(next(12)) * 100;  // few values: many ties
      };
      const auto admit = [&](int n) {
        for (int i = 0; i < n; ++i) {
          window.push_back(req(++id, static_cast<ThreadId>(next(6)), arrival()));
          s.onEnqueue(window.back());
        }
      };
      admit(static_cast<int>(next(32)) + 1);
      s.formBatchIfDrained();
      admit(static_cast<int>(next(8)));  // after formation: unmarked
      for (std::uint64_t k = next(6); k > 0 && !window.empty(); --k) {
        const auto pos = static_cast<std::size_t>(next(window.size()));
        s.onDequeue(pos, window[pos].id);
        window.erase(window.begin() + static_cast<std::ptrdiff_t>(pos));
      }

      const auto earliest = [&]() -> Tick {
        switch (next(5)) {
          case 0: return kNow - static_cast<Tick>(next(1000));  // ready
          case 1: return kNow;
          case 2: return kNow + 1 + static_cast<Tick>(next(500));
          case 3: return kNow + 100000 + static_cast<Tick>(next(100000));
          default: return kGateHorizon + 1;  // beyond the gate horizon
        }
      };
      std::vector<Candidate> cands;
      bool marked = false, unmarked = false;
      for (std::size_t i = 0; i < window.size(); ++i) {
        ASSERT_EQ(s.markedAt(static_cast<int>(i)), s.isMarked(window[i].id));
        (s.markedAt(static_cast<int>(i)) ? marked : unmarked) = true;
        if (next(10) == 0) continue;  // a precharge the guard held back
        const MemRequest& r = window[i];
        cands.push_back(cand(static_cast<int>(i), r.id, r.thread, r.arrival, earliest(),
                             next(2) == 0));
      }
      for (std::uint64_t w = next(6); w > 0; --w)  // writes
        cands.push_back(cand(-1, 1000 + w, static_cast<ThreadId>(next(6)), arrival(),
                             earliest(), next(2) == 0));
      if (kind == SchedulerKind::ParBs && marked && unmarked) ++parBsMixed;

      std::vector<Candidate> stamped = cands;
      const Scheduler::PickPair want = s.referencePick(stamped, kNow);
      const Scheduler::PickPair got = s.pick(cands, kNow);
      ASSERT_EQ(got.issuable, want.issuable) << s.name() << " seed " << seed;
      ASSERT_EQ(got.overall, want.overall) << s.name() << " seed " << seed;
    }
  }
  EXPECT_GT(parBsMixed, 100) << "too few windows held marked and unmarked reads";
}

TEST(KeyOrder, IssuableIgnoresFutureAndOverallIgnoresReadiness) {
  // Row-hit stream is ready now; a conflicting older request is ready just
  // after `now` — the gate scenario: issuable = the hit, overall = the hit
  // too (row hits outrank age in FR-FCFS)...
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 150, false),  // older, not ready
      cand(1, 2, 0, 90, 0, true),     // younger hit, ready
  };
  const auto p = pickChecked(Scheduler(SchedulerKind::FrFcfs), cands, 100);
  EXPECT_EQ(p.issuable, 1);
  EXPECT_EQ(p.overall, 1);
  // ...whereas under FCFS (age only) the overall favourite is the older,
  // not-yet-ready request: exactly the pair the priority gate inspects.
  const auto p2 = pickChecked(Scheduler(SchedulerKind::Fcfs), cands, 100);
  EXPECT_EQ(p2.issuable, 1);
  EXPECT_EQ(p2.overall, 0);
}

// Arrivals up to kMaxArrival keep their order under every key, and every
// key stays below the walk's "no best yet" value.
TEST(KeyOrder, ArrivalsUpToTheLimitKeepTheirOrder) {
  for (auto kind : {SchedulerKind::Fcfs, SchedulerKind::FrFcfs, SchedulerKind::ParBs}) {
    const Scheduler s(kind);
    for (const bool hit : {false, true}) {
      EXPECT_LT(s.key(-1, hit, kMaxArrival - 1), s.key(-1, hit, kMaxArrival)) << s.name();
      EXPECT_LT(s.key(-1, hit, 0), s.key(-1, hit, 1)) << s.name();
      EXPECT_LT(s.key(-1, hit, kMaxArrival), BestPair<int>::kNoKey) << s.name();
    }
    if (kind != SchedulerKind::Fcfs) {
      EXPECT_LT(s.key(-1, true, kMaxArrival), s.key(-1, false, 0)) << s.name();
    }
  }
}

// ---- PAR-BS state across a checkpoint --------------------------------------

std::string saved(const Scheduler& s) {
  ckpt::Writer w;
  s.save(w);
  return w.take();
}

/// A PAR-BS scheduler with a formed batch over five reads of two threads,
/// one read unmarked (cap 2), then one dequeue.
Scheduler batched() {
  Scheduler s(SchedulerKind::ParBs, 2);
  for (std::uint64_t i = 1; i <= 5; ++i)
    s.onEnqueue(req(i, static_cast<ThreadId>(i % 2), static_cast<Tick>(10 * i)));
  s.formBatchIfDrained();
  s.onDequeue(1, 2);
  return s;
}

TEST(ParBsSnapshot, RoundTripsItsBytesAndMarks) {
  const Scheduler s = batched();
  const std::string bytes = saved(s);
  Scheduler back(SchedulerKind::ParBs, 2);
  ckpt::Reader r(bytes);
  back.load(r);
  ASSERT_TRUE(r.ok() && r.atEnd());
  EXPECT_EQ(saved(back), bytes);
  ASSERT_EQ(back.view().size(), s.view().size());
  for (std::size_t i = 0; i < s.view().size(); ++i)
    EXPECT_EQ(back.markedAt(static_cast<int>(i)), s.markedAt(static_cast<int>(i)));
  // The layout: marks (id, thread) by id, counts (thread, count), the view.
  ckpt::Reader fields(bytes);
  EXPECT_EQ(fields.u64(), 3u);  // ids 1 and 3 (thread 1) and 4 (thread 0)
  EXPECT_EQ(fields.i64(), 1);
}

TEST(ParBsSnapshot, RejectsStateThatContradictsItself) {
  // Rewrites the saved state as (marks, counts, view) lists and reloads it.
  struct State {
    std::vector<std::pair<std::int64_t, std::int32_t>> marks, counts;
    std::vector<std::tuple<std::uint64_t, std::int32_t, std::int64_t>> view;
  };
  const auto load = [](const State& st) {
    ckpt::Writer w;
    w.u64(st.marks.size());
    for (const auto& [id, t] : st.marks) {
      w.i64(id);
      w.i32(t);
    }
    w.u64(st.counts.size());
    for (const auto& [t, n] : st.counts) {
      w.i64(t);
      w.i32(n);
    }
    w.u64(st.view.size());
    for (const auto& [id, t, at] : st.view) {
      w.u64(id);
      w.i32(t);
      w.i64(at);
    }
    Scheduler s(SchedulerKind::ParBs, 2);
    ckpt::Reader r(w.str());
    s.load(r);
    return r.ok() && r.atEnd();
  };
  const State good{{{1, 0}, {3, 1}}, {{0, 1}, {1, 1}}, {{1, 0, 10}, {3, 1, 30}, {5, 1, 50}}};
  EXPECT_TRUE(load(good));
  const std::vector<std::pair<const char*, std::function<void(State&)>>> edits = {
      {"a mark for an id not in the view", [](State& s) { s.marks[1].first = 4; }},
      {"a mark naming another thread", [](State& s) { s.marks[1].second = 0; }},
      {"marks out of order", [](State& s) { std::swap(s.marks[0], s.marks[1]); }},
      {"a count above its marks", [](State& s) { s.counts[1].second = 2; }},
      {"a count for a thread without marks", [](State& s) { s.counts.push_back({7, 1}); }},
      {"a missing count", [](State& s) { s.counts.pop_back(); }},
      {"a count above the cap",
       [](State& s) {
         s.marks = {{1, 1}, {3, 1}, {5, 1}};
         s.view = {{1, 1, 10}, {3, 1, 30}, {5, 1, 50}};
         s.counts = {{1, 3}};
       }},
      {"a repeated id in the view", [](State& s) { std::get<0>(s.view[2]) = 3; }},
      {"a thread id past the bound", [](State& s) { std::get<1>(s.view[2]) = kMaxThreads; }},
      {"a negative thread id", [](State& s) { std::get<1>(s.view[2]) = -1; }},
      {"an arrival past the key's range",
       [](State& s) { std::get<2>(s.view[2]) = kMaxArrival + 1; }},
  };
  for (const auto& [what, edit] : edits) {
    State st = good;
    edit(st);
    EXPECT_FALSE(load(st)) << what;
  }
}

}  // namespace
}  // namespace mb::mc
