// ShardedEngine window mechanics, driven by a scripted two-channel fixture
// (no controllers, no cores — bare queues and hand-posted messages):
//
//  * completions posted AT the lookahead horizon and one tick AFTER it are
//    buffered and merged into the CPU queue in stamp order, never reordered
//    by which worker ran which channel or by the pool size;
//  * a completion one tick BEFORE the horizon — i.e. a lookahead larger than
//    the real channel → CPU latency — is an MB_CHECK failure, on the inline
//    path, through a pool thread (the ferried-exception path), and on the
//    calling thread's own share while the pool is mid-phase (the barrier
//    completes before the re-raise);
//  * a window where channels have zero events (pure CPU work) drains
//    cleanly, as does an entirely empty channel side.
//
// Logs are split per queue (cpuLog is main-thread-only, chLog[c] is written
// only by channel c's executing thread), so the fixture itself is race-free
// under a worker pool and the cross-thread property under test — the CPU
// merge order — is exactly what cpuLog records.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "sim/shard.hpp"

namespace mb::sim {
namespace {

constexpr Tick kLookahead = 10;

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
    opts.workers = workers;
    engine = std::make_unique<ShardedEngine>(
        cpu, std::vector<EventQueue*>{ch[0].get(), ch[1].get()}, opts);
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

}  // namespace
}  // namespace mb::sim
