// ShardedEngine window mechanics, driven by a scripted two-channel fixture
// (no controllers, no cores — bare queues, hand-posted messages, and a
// stand-in write queue per channel):
//
//  * completions posted AT the lookahead horizon and one tick AFTER it are
//    buffered and merged into the CPU queue in stamp order, never reordered
//    by which worker ran which channel or by the pool size;
//  * a completion one tick BEFORE the horizon — i.e. a lookahead larger than
//    the real channel → CPU latency — is an MB_CHECK failure, on the inline
//    path, through a pool thread (the ferried-exception path), and on the
//    calling thread's own share while the pool is mid-phase (the barrier
//    completes before the re-raise);
//  * the forward cut: a read admission that may be forwarded from a held
//    write ends its window one forward latency after the read, whether the
//    engine learns it in Phase A or at window start, from the write query
//    or from a write still in the mailbox, and the forwarded completion,
//    due exactly at the cut, passes the guard; with the write query
//    answering "no" the same script trips it;
//  * completions delivered at a window's start and due past a Phase-A cut
//    stay live across the window boundary and fire once, in stamp order;
//  * a window where channels have zero events (pure CPU work) drains
//    cleanly, as does an entirely empty channel side.
//
// Logs are split per queue (cpuLog is main-thread-only, chLog[c] is written
// only by channel c's executing thread), so the fixture itself is race-free
// under a worker pool and the cross-thread property under test — the CPU
// merge order — is exactly what cpuLog records.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "sim/shard.hpp"

namespace mb::sim {
namespace {

constexpr Tick kLookahead = 10;
constexpr Tick kForward = 2;

/// Two channel queues + one CPU queue wired to a ShardedEngine.
struct Fixture {
  explicit Fixture(int workers) {
    cpu.setShardId(2);
    ch[0] = std::make_unique<EventQueue>();
    ch[1] = std::make_unique<EventQueue>();
    ch[0]->setShardId(0);
    ch[1]->setShardId(1);
    ShardEngineOptions opts;
    opts.lookahead = kLookahead;
    opts.forwardLatency = kForward;
    opts.workers = workers;
    engine = std::make_unique<ShardedEngine>(
        cpu, std::vector<EventQueue*>{ch[0].get(), ch[1].get()}, opts);
    // A stand-in write queue per channel: a delivered write is held for
    // good, and a delivered read of a held line is forwarded, completing
    // one forward latency after admission. Any other read completes one
    // lookahead later, like a CAS issued on admission.
    engine->setDeliverEnqueue([this](ChannelId c, Tick /*due*/,
                                     std::uint64_t line, CoreId /*core*/,
                                     bool isWrite) {
      EventQueue& q = *ch[c];
      const std::string tag = (isWrite ? "w" : "r") + std::to_string(line);
      chLog[c].push_back("admit." + tag + "@" + std::to_string(q.now()));
      if (isWrite) {
        held[c].insert(line);
        return;
      }
      const Tick due = q.now() + (held[c].count(line) != 0 ? kForward : kLookahead);
      engine->postCompletion(c, due, q.issueStamp(),
                             mc::CompletionFn([this, tag](Tick at) {
                               cpuLog.push_back("done." + tag + "@" +
                                                std::to_string(at));
                             }));
    });
    engine->setWriteQuery([this](ChannelId c, std::uint64_t line) {
      return !queryAnswersNo && held[c].count(line) != 0;
    });
  }

  /// CPU event at `when` that posts an admission of `line` to channel `c`,
  /// due `due`.
  void cpuPosts(Tick when, int c, Tick due, std::uint64_t line, bool isWrite) {
    cpu.scheduleAt(when, [this, c, due, line, isWrite] {
      engine->postEnqueue(c, due, cpu.issueStamp(), line, 0, isWrite);
    });
  }

  /// Channel event at `when` that posts a completion due `due`. The channel
  /// log records the post; the CPU log records the delivery.
  void channelPostsCompletion(int c, Tick when, Tick due, const std::string& tag) {
    EventQueue& q = *ch[c];
    ch[c]->scheduleAt(when, [this, c, due, tag, &q] {
      chLog[c].push_back("post." + tag + "@" + std::to_string(q.now()));
      engine->postCompletion(c, due, q.issueStamp(),
                             mc::CompletionFn([this, tag](Tick at) {
                               cpuLog.push_back("done." + tag + "@" +
                                                std::to_string(at));
                             }));
    });
  }

  void run() {
    engine->run(-1, [] {}, [] { return false; });
  }

  EventQueue cpu;
  std::unique_ptr<EventQueue> ch[2];
  std::unique_ptr<ShardedEngine> engine;
  std::vector<std::string> cpuLog;
  std::vector<std::string> chLog[2];
  std::set<std::uint64_t> held[2];  // held[c]: written by channel c's thread
  bool queryAnswersNo = false;      // the write query hides every held line
};

struct ScriptResult {
  std::vector<std::string> cpuLog;
  std::vector<std::string> chLog0;
  std::vector<std::string> chLog1;
  bool operator==(const ScriptResult& o) const {
    return cpuLog == o.cpuLog && chLog0 == o.chLog0 && chLog1 == o.chLog1;
  }
};

ScriptResult scriptAtAndPastHorizon(int workers) {
  Fixture f(workers);
  // Window 1 is [0, 10): both channels fire at ticks 0..2 and post
  // completions landing exactly ON the horizon (due 10) and past it
  // (due 11, 25). Equal-due completions from both channels probe the
  // cross-channel merge tiebreak.
  f.channelPostsCompletion(0, 0, 10, "a0");   // at horizon, channel 0
  f.channelPostsCompletion(1, 0, 10, "a1");   // at horizon, channel 1: same due
  f.channelPostsCompletion(1, 1, 11, "b1");
  f.channelPostsCompletion(0, 2, 25, "c0");   // beyond the NEXT window too
  f.run();
  return ScriptResult{f.cpuLog, f.chLog[0], f.chLog[1]};
}

TEST(ShardWindow, CompletionsAtAndPastHorizonMergeInStampOrder) {
  const ScriptResult r = scriptAtAndPastHorizon(1);
  // CPU deliveries in stamp order: equal due 10 → equal counters → channel
  // index breaks the tie, so a0 strictly precedes a1 by construction.
  const std::vector<std::string> cpuExpect = {
      "done.a0@10", "done.a1@10", "done.b1@11", "done.c0@25"};
  EXPECT_EQ(r.cpuLog, cpuExpect);
  EXPECT_EQ(r.chLog0, (std::vector<std::string>{"post.a0@0", "post.c0@2"}));
  EXPECT_EQ(r.chLog1, (std::vector<std::string>{"post.a1@0", "post.b1@1"}));
}

TEST(ShardWindow, WorkerPoolCannotReorderTheMerge) {
  const ScriptResult serial = scriptAtAndPastHorizon(1);
  for (int trial = 0; trial < 20; ++trial)  // rescheduling jitter across runs
    EXPECT_TRUE(scriptAtAndPastHorizon(2) == serial) << "trial " << trial;
}

TEST(ShardWindow, CompletionOneTickInsideHorizonIsCaughtInline) {
  ScopedCheckTrap trap;
  try {
    Fixture f(1);
    f.channelPostsCompletion(0, 0, kLookahead - 1, "bad");  // due 9 < t1 10
    f.run();
    FAIL() << "lookahead violation not detected";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("lookahead"), std::string::npos) << e.message;
  }
}

TEST(ShardWindow, CompletionOneTickInsideHorizonIsCaughtThroughWorkers) {
  ScopedCheckTrap trap;
  try {
    Fixture f(2);
    // Both channels busy in the same window, so the pool engages and the
    // failure crosses the barrier as a ferried exception.
    f.channelPostsCompletion(0, 0, kLookahead + 5, "ok");
    f.channelPostsCompletion(1, 1, kLookahead - 1, "bad");
    f.run();
    FAIL() << "lookahead violation not detected through the worker pool";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("lookahead"), std::string::npos) << e.message;
  }
}

// The calling thread runs share 0 (channel 0 here) itself, so a failure can
// start on main while a pool thread is still inside its own share. The
// engine must complete the barrier — the pool's window runs to its end —
// and only then re-raise on main.
TEST(ShardWindow, FailureOnMainsShareWaitsForThePoolThenReraises) {
  ScopedCheckTrap trap;
  Fixture f(2);
  // Channel 1 (the pool thread's share) is slow: four events in the first
  // window, each holding the thread for a few milliseconds.
  for (const Tick t : {Tick{0}, Tick{1}, Tick{2}, Tick{3}})
    f.ch[1]->scheduleAt(t, [&f, t] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      f.chLog[1].push_back("slow@" + std::to_string(t));
    });
  // Channel 0 (main's share) violates the lookahead in its first event.
  f.channelPostsCompletion(0, 0, kLookahead - 1, "bad");
  try {
    f.run();
    FAIL() << "lookahead violation on main's share not detected";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("lookahead"), std::string::npos) << e.message;
  }
  const std::vector<std::string> expect = {"slow@0", "slow@1", "slow@2", "slow@3"};
  EXPECT_EQ(f.chLog[1], expect) << "re-raised before the pool finished its share";
  EXPECT_EQ(f.chLog[0], (std::vector<std::string>{"post.bad@0"}));
}

/// Window [0, 10) admits a write of line 7 to channel 0 and of line 8 to
/// channel 1. At 20 the CPU posts reads of both lines due 23, which only the
/// write query can show to be forwardable (Phase A), and a read of line 7
/// due 35, past that window, which the start of a later window checks.
ScriptResult scriptForwardedReads(int workers, bool queryAnswersNo,
                                  std::uint64_t* windows = nullptr,
                                  std::uint64_t* cut = nullptr) {
  Fixture f(workers);
  f.queryAnswersNo = queryAnswersNo;
  f.cpuPosts(0, 0, 0, 7, true);
  f.cpuPosts(0, 1, 0, 8, true);
  f.cpuPosts(20, 0, 23, 7, false);
  f.cpuPosts(20, 1, 23, 8, false);
  f.cpuPosts(20, 0, 35, 7, false);
  f.run();
  if (windows != nullptr) *windows = f.engine->windowsRun();
  if (cut != nullptr) *cut = f.engine->windowsCut();
  return ScriptResult{f.cpuLog, f.chLog[0], f.chLog[1]};
}

TEST(ShardWindow, ForwardableReadCutsTheWindowAndItsCompletionAtTheCutPasses) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::uint64_t windows = 0, cut = 0;
    const ScriptResult r = scriptForwardedReads(workers, false, &windows, &cut);
    // [20, 30) is cut to 25 in Phase A, and [35, 45) to 37 at its start;
    // both channels are busy in the first cut window (the pool runs it).
    EXPECT_EQ(r.cpuLog, (std::vector<std::string>{"done.r7@25", "done.r8@25",
                                                  "done.r7@37"}));
    EXPECT_EQ(r.chLog0, (std::vector<std::string>{"admit.w7@0", "admit.r7@23",
                                                  "admit.r7@35"}));
    EXPECT_EQ(r.chLog1, (std::vector<std::string>{"admit.w8@0", "admit.r8@23"}));
    EXPECT_EQ(windows, 5u);  // [0,10) [20,25) [25,35) [35,37) [37,47)
    EXPECT_EQ(cut, 2u);
  }
}

TEST(ShardWindow, ForwardMissedByTheWriteQueryIsCaughtInline) {
  ScopedCheckTrap trap;
  try {
    scriptForwardedReads(1, true);
    FAIL() << "forward inside the window not detected";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("lookahead"), std::string::npos) << e.message;
  }
}

TEST(ShardWindow, ForwardMissedByTheWriteQueryIsCaughtThroughWorkers) {
  ScopedCheckTrap trap;
  try {
    scriptForwardedReads(2, true);  // both channels forward in [20, 30)
    FAIL() << "forward inside the window not detected through the worker pool";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("lookahead"), std::string::npos) << e.message;
  }
}

// A writeback is due when it is posted, a read one request-link hop later,
// so a write posted after a read can reach the channel first and forward
// it. Posting the write must cut the window for the buffered read.
TEST(ShardWindow, WriteDueBeforeABufferedReadCutsTheWindow) {
  for (const int workers : {1, 2}) {
    Fixture f(workers);
    f.cpuPosts(0, 0, 6, 9, false);
    f.cpuPosts(0, 0, 2, 9, true);
    f.run();
    EXPECT_EQ(f.cpuLog, (std::vector<std::string>{"done.r9@8"})) << workers;
    EXPECT_EQ(f.engine->windowsRun(), 2u);  // [0,8) [8,18)
    EXPECT_EQ(f.engine->windowsCut(), 1u);
  }
}

// Completions are delivered to the CPU queue at the start of the window
// their due tick falls in; a Phase-A cut can then end that window before
// they fire. They must survive into the next window's delivery and fire
// there exactly once, merged in stamp order with what it delivers.
TEST(ShardWindow, CompletionsDeliveredBeforeAPhaseACutFireInTheNextWindow) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Fixture f(workers);
    // [0, 10): both channels post completions due 12.
    f.channelPostsCompletion(0, 0, 12, "a0");
    f.channelPostsCompletion(1, 0, 12, "a1");
    // [10, 20) delivers both, then the CPU posts a write and a read of line
    // 5 due 10: the read meets the write in the mailbox, so the window is
    // cut to 12 with a0 and a1 still pending on the CPU queue.
    f.cpuPosts(10, 0, 10, 5, true);
    f.cpuPosts(10, 0, 10, 5, false);
    f.run();
    EXPECT_EQ(f.cpuLog, (std::vector<std::string>{"done.a0@12", "done.a1@12",
                                                  "done.r5@12"}));
    EXPECT_EQ(f.engine->windowsRun(), 3u);  // [0,10) [10,12) [12,22)
    EXPECT_EQ(f.engine->windowsCut(), 1u);
  }
}

TEST(ShardWindow, PureCpuWindowsDrainWithIdleChannels) {
  for (const int workers : {1, 2}) {
    Fixture f(workers);
    // CPU-only work spanning several windows; channels never see an event.
    for (Tick t : {Tick{0}, Tick{7}, Tick{23}})
      f.cpu.scheduleAt(t, [&f, t] {
        f.cpuLog.push_back("tick@" + std::to_string(t));
      });
    f.run();
    const std::vector<std::string> expect = {"tick@0", "tick@7", "tick@23"};
    EXPECT_EQ(f.cpuLog, expect) << "workers=" << workers;
    EXPECT_EQ(f.engine->processedCount(), 3u);
    EXPECT_EQ(f.engine->maxNow(), 23);
  }
}

TEST(ShardWindow, ZeroEventsAnywhereReturnsImmediately) {
  Fixture f(2);
  f.run();  // minNextTime() == kTickNever on the first window
  EXPECT_TRUE(f.cpuLog.empty());
  EXPECT_EQ(f.engine->processedCount(), 0u);
}

// One busy channel runs inline even with a pool armed (cheaper than the
// barrier); the adaptive choice must not change what executes.
TEST(ShardWindow, SingleBusyChannelWindowMatchesSerial) {
  auto script = [](int workers) {
    Fixture f(workers);
    f.channelPostsCompletion(0, 0, 15, "solo");
    f.channelPostsCompletion(0, 3, 30, "later");
    f.run();
    return ScriptResult{f.cpuLog, f.chLog[0], f.chLog[1]};
  };
  EXPECT_TRUE(script(2) == script(1));
}

// A restore checks each buffered admission against the system it loaded
// into: forEachAdmission visits every one, lane by lane in post order, and
// an engine loaded from a saved one visits the same messages.
TEST(ShardWindow, BufferedAdmissionsSurviveSaveAndLoadInLaneOrder) {
  const auto visit = [](const ShardedEngine& e) {
    std::vector<std::string> seen;
    e.forEachAdmission([&](ChannelId ch, std::uint64_t line, CoreId core, bool write) {
      seen.push_back(std::to_string(ch) + ":" + std::to_string(line) + ":" +
                     std::to_string(core) + (write ? "w" : "r"));
    });
    return seen;
  };
  Fixture saved(1);
  saved.engine->postEnqueue(1, 7, saved.cpu.issueStamp(), 128, 5, true);
  saved.engine->postEnqueue(0, 4, saved.cpu.issueStamp(), 64, 2, false);
  saved.engine->postEnqueue(1, 9, saved.cpu.issueStamp(), 192, 6, false);
  const std::vector<std::string> expect = {"0:64:2r", "1:128:5w", "1:192:6r"};
  EXPECT_EQ(visit(*saved.engine), expect);

  ckpt::Writer w;
  saved.engine->save(w);
  const std::string bytes = w.take();
  Fixture loaded(1);
  ckpt::Reader r(bytes);
  loaded.engine->load(r);
  EXPECT_TRUE(r.ok() && r.atEnd());
  EXPECT_EQ(visit(*loaded.engine), expect);
}

}  // namespace
}  // namespace mb::sim
