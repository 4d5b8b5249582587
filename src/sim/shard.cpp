#include "sim/shard.hpp"

#include <sched.h>

#include <algorithm>
#include <utility>

#include "ckpt/restore.hpp"
#include "sim/sweep.hpp"

namespace mb::sim {

// ---------------------------------------------------------------------------
// BufferedCommandLog

void BufferedCommandLog::onEvent(const mc::CmdEvent& ev) {
  entries_.push_back(Entry{eq_.now(), eq_.currentStamp(), ev});
}

// ---------------------------------------------------------------------------
// ShardedEngine

ShardedEngine::ShardedEngine(EventQueue& cpuQueue,
                             std::vector<EventQueue*> channelQueues,
                             const ShardEngineOptions& opts)
    : cpuQ_(cpuQueue), chQs_(std::move(channelQueues)), opts_(opts) {
  MB_CHECK_MSG(opts_.lookahead > 0 && opts_.forwardLatency > 0 &&
                   opts_.forwardLatency <= opts_.lookahead,
               "lookahead=%lld forwardLatency=%lld",
               static_cast<long long>(opts_.lookahead),
               static_cast<long long>(opts_.forwardLatency));
  MB_CHECK(!chQs_.empty());
  lanes_.resize(chQs_.size());
  startWorkers();
}

ShardedEngine::~ShardedEngine() { stopWorkers(); }

void ShardedEngine::setCommandMerge(std::vector<BufferedCommandLog*> buffers,
                                    mc::CommandLog* sink) {
  MB_CHECK(buffers.size() == chQs_.size());
  MB_CHECK(sink != nullptr);
  cmdBufs_ = std::move(buffers);
  cmdSink_ = sink;
}

void ShardedEngine::postCompletion(ChannelId fromChannel, Tick due,
                                   const EventStamp& st,
                                   InlineFunction<void(Tick)> cb) {
  MB_CHECK(fromChannel >= 0 &&
           static_cast<std::size_t>(fromChannel) < chQs_.size());
  // A completion due before the current window's end would mean the channel
  // can reach the CPU faster than the window allows — a lookahead above the
  // real CAS → data latency, or a forwarded read the cut missed — and the
  // conservative window would have executed CPU events it shouldn't have.
  MB_CHECK_MSG(due >= windowEnd_.load(std::memory_order_relaxed),
               "completion due=%lldps inside the lookahead horizon (window end "
               "%lldps) — lookahead exceeds the channel->CPU latency",
               static_cast<long long>(due),
               static_cast<long long>(windowEnd_.load(std::memory_order_relaxed)));
  Lane& lane = lanes_[static_cast<std::size_t>(fromChannel)];
  if (due < lane.outboxMinDue) lane.outboxMinDue = due;
  lane.outbox.push_back(CpuMsg{due, st, std::move(cb)});
}

void ShardedEngine::postEnqueue(ChannelId toChannel, Tick due,
                                const EventStamp& st, std::uint64_t lineAddr,
                                CoreId core, bool isWrite) {
  MB_CHECK(toChannel >= 0 && static_cast<std::size_t>(toChannel) < chQs_.size());
  const auto ch = static_cast<std::size_t>(toChannel);
  Lane& lane = lanes_[ch];
  // Phase A: an admission due inside the window can make a read forwardable
  // there. A read may meet a buffered write; a write may be due before a
  // buffered read of its line (a read's due includes the request link hop,
  // a writeback's does not).
  const Tick end = windowEnd_.load(std::memory_order_relaxed);
  if (due < end) {
    if (!isWrite) {
      if (mayForward(ch, lineAddr)) cutWindow(due + opts_.forwardLatency);
    } else {
      for (const ChannelMsg& m : lane.inbox)
        if (!m.write && m.lineAddr == lineAddr && m.due < end)
          cutWindow(m.due + opts_.forwardLatency);
    }
  }
  if (due < lane.inboxMinDue) lane.inboxMinDue = due;
  lane.inbox.push_back(ChannelMsg{due, st, lineAddr, core, isWrite});
}

bool ShardedEngine::mayForward(std::size_t ch, std::uint64_t lineAddr) const {
  if (writeQuery_ && writeQuery_(static_cast<ChannelId>(ch), lineAddr)) return true;
  for (const ChannelMsg& m : lanes_[ch].inbox)
    if (m.write && m.lineAddr == lineAddr) return true;
  return false;
}

Tick ShardedEngine::forwardCut(Tick t1) const {
  // A read due within forwardLatency of t1 would put its cut past t1, so
  // take the minimum, as cutWindow does: the window never grows. Only a
  // read due before the running t1 can lower it, so filtering on it skips
  // no cut.
  for (std::size_t ch = 0; ch < lanes_.size(); ++ch) {
    if (lanes_[ch].inboxMinDue >= t1) continue;
    for (const ChannelMsg& m : lanes_[ch].inbox)
      if (!m.write && m.due < t1 && mayForward(ch, m.lineAddr))
        t1 = std::min(t1, m.due + opts_.forwardLatency);
  }
  return t1;
}

void ShardedEngine::cutWindow(Tick end) {
  if (end < windowEnd_.load(std::memory_order_relaxed))
    windowEnd_.store(end, std::memory_order_relaxed);
}

Tick ShardedEngine::minNextTime() const {
  Tick t = cpuQ_.nextEventTime();
  for (std::size_t ch = 0; ch < chQs_.size(); ++ch) {
    const Lane& lane = lanes_[ch];
    t = std::min({t, chQs_[ch]->nextEventTime(), lane.inboxMinDue, lane.outboxMinDue});
  }
  return t;
}

void ShardedEngine::deliverToCpu(Tick t1) {
  if (arenaLive_ == 0) cpuArena_.clear();
  for (Lane& lane : lanes_) {
    if (lane.outboxMinDue >= t1) continue;  // nothing deliverable this window
    auto& buf = lane.outbox;
    Tick keptMin = kTickNever;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (buf[i].due < t1) {
        const std::uint32_t idx = static_cast<std::uint32_t>(cpuArena_.size());
        const Tick due = buf[i].due;
        cpuArena_.push_back(std::move(buf[i].cb));
        ++arenaLive_;
        cpuQ_.scheduleStamped(due, buf[i].stamp, [this, idx, due] {
          --arenaLive_;
          cpuArena_[idx](due);
        });
      } else {
        if (buf[i].due < keptMin) keptMin = buf[i].due;
        if (kept != i) buf[kept] = std::move(buf[i]);
        ++kept;
      }
    }
    buf.resize(kept);
    lane.outboxMinDue = keptMin;
  }
}

void ShardedEngine::deliverToChannel(std::size_t ch, Tick t1) {
  Lane& lane = lanes_[ch];
  if (lane.inboxMinDue >= t1) return;  // nothing deliverable this window
  auto& buf = lane.inbox;
  Tick keptMin = kTickNever;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf[i].due < t1) {
      // Capture scalars, not the message struct: the closure must fit the
      // queue's inline callback buffer (admissions are the hot path).
      const Tick due = buf[i].due;
      const std::uint64_t lineAddr = buf[i].lineAddr;
      const CoreId core = buf[i].core;
      const bool write = buf[i].write;
      chQs_[ch]->scheduleStamped(
          due, buf[i].stamp, [this, ch, due, lineAddr, core, write] {
            deliverEnqueue_(static_cast<ChannelId>(ch), due, lineAddr, core,
                            write);
          });
    } else {
      if (buf[i].due < keptMin) keptMin = buf[i].due;
      if (kept != i) buf[kept] = buf[i];
      ++kept;
    }
  }
  buf.resize(kept);
  lane.inboxMinDue = keptMin;
}

void ShardedEngine::runChannelWindow(std::size_t ch, std::uint64_t* events) {
  EventQueue& q = *chQs_[ch];
  const Tick t1 = phaseT1_;
  // Admissions due in this window land on the queue here, on the thread
  // that runs it, so the queue never changes hands within a window.
  deliverToChannel(ch, t1);
  for (;;) {
    const Tick next = q.nextEventTime();
    if (next >= t1) break;  // kTickNever when empty
    if (phaseHasStop_ &&
        !EventQueue::keyBefore(next, *q.peekStamp(), stopWhen_, stopStamp_))
      break;
    q.step();
    ++*events;
    MB_CHECK_MSG(eventsBase_ + *events < opts_.maxEvents,
                 "event cap hit at t=%lldps — runaway configuration?",
                 static_cast<long long>(q.now()));
  }
}

void ShardedEngine::runChannelPhase(int share) {
  // Count locally and publish once: the per-share slots sit side by side,
  // and a write per event would bounce their cache line between shares.
  std::uint64_t events = 0;
  for (std::size_t ch = static_cast<std::size_t>(share); ch < chQs_.size();
       ch += static_cast<std::size_t>(participants_))
    runChannelWindow(ch, &events);
  shareEvents_[static_cast<std::size_t>(share)] = events;
}

namespace {

/// One busy-wait step: a CPU-relax hint, and every 256th step a yield, so a
/// spinning thread hands its core over if the host is busier than assumed.
void relax(unsigned spins) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
  if (spins % 256 == 0) std::this_thread::yield();
}

/// Move the calling pool thread off `callerCpu` (the CPU the engine's caller
/// runs on), to the share-th other CPU it may use, so the pool lands apart.
/// A woken thread otherwise tends to stay stacked on the caller's CPU: the
/// wake-up avoids vCPUs the hypervisor descheduled while idle, and the load
/// balancer takes about a second to spread threads that never sleep, during
/// which the spinners only yield to each other. Pinning for a moment and
/// then restoring the mask migrates the thread now and leaves the scheduler
/// free to move it later.
void leaveCpu(int callerCpu, int share) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (callerCpu < 0 || sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int others = CPU_COUNT(&allowed) - (CPU_ISSET(callerCpu, &allowed) ? 1 : 0);
  if (others <= 0) return;
  int skip = (share - 1) % others;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || cpu == callerCpu || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0)
      sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
#else
  (void)callerCpu;
  (void)share;
#endif
}

}  // namespace

void ShardedEngine::workerMain(int share) {
  // Failures inside a worker must not abort from a detached stack frame with
  // the pool barrier still armed: trap them, ferry the exception to the
  // calling thread, and re-dispatch there (restoring abort semantics when no
  // trap is active on that thread).
  ScopedCheckTrap trap;
  std::uint64_t seen = 0;
  for (;;) {
    // Spin while a run is in progress on a host with a core per participant
    // (awake_), park otherwise. The seq_cst ordering of parked_ against the
    // publisher's phaseGen_ bump + parked_ check closes the missed-wakeup
    // window: if the publisher reads parked_ == 0, this thread's predicate
    // check (after its parked_ increment) must observe the new generation.
    std::uint64_t gen = phaseGen_.load(std::memory_order_acquire);
    for (unsigned spins = 0; gen == seen;
         gen = phaseGen_.load(std::memory_order_acquire)) {
      if (awake_.load(std::memory_order_relaxed)) {
        relax(++spins);
        continue;
      }
      parked_.fetch_add(1);
      {
        std::unique_lock<std::mutex> l(phaseMu_);
        phaseCv_.wait(l, [&] { return phaseGen_.load() != seen; });
      }
      parked_.fetch_sub(1);
      if (awake_.load(std::memory_order_relaxed))
        leaveCpu(callerCpu_.load(std::memory_order_relaxed), share);
    }
    seen = gen;
    if (shutdown_.load(std::memory_order_relaxed)) return;
    try {
      runChannelPhase(share);
    } catch (...) {
      shareErr_[static_cast<std::size_t>(share)] = std::current_exception();
    }
    phaseDone_.fetch_add(1);
    if (mainParked_.load()) {
      std::lock_guard<std::mutex> l(doneMu_);
      doneCv_.notify_one();
    }
  }
}

void ShardedEngine::startWorkers() {
  participants_ = std::min(std::max(opts_.workers, 1), static_cast<int>(chQs_.size()));
  if (participants_ <= 1) return;  // fully inline
  shareErr_.resize(static_cast<std::size_t>(participants_));
  shareEvents_.resize(static_cast<std::size_t>(participants_), 0);
  // Spinning is only worth it when every participant has a core of its own;
  // on an oversubscribed host a spinning waiter steals the quantum from
  // whoever holds the work it is waiting for, so everyone parks there.
  spin_ = hostCpuCount() >= participants_;
  threads_.reserve(static_cast<std::size_t>(participants_ - 1));
  for (int share = 1; share < participants_; ++share)
    threads_.emplace_back([this, share] { workerMain(share); });
}

void ShardedEngine::publishPhase() {
  phaseGen_.fetch_add(1);
  if (parked_.load() > 0) {
    std::lock_guard<std::mutex> l(phaseMu_);
    phaseCv_.notify_all();
  }
}

void ShardedEngine::stopWorkers() {
  if (threads_.empty()) return;
  shutdown_.store(true, std::memory_order_relaxed);
  publishPhase();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void ShardedEngine::runPhaseB(Tick t1) {
  phaseT1_ = t1;
  // Count the channels with runnable work this window; one busy channel (the
  // common case on single-channel configs and in bursty phases) is cheaper
  // inline than through the barrier — and per-channel event order is
  // identical either way, so the choice cannot show up in any output.
  int busy = 0;
  std::size_t lastBusy = 0;
  for (std::size_t ch = 0; ch < chQs_.size(); ++ch) {
    if (chQs_[ch]->nextEventTime() < t1 || lanes_[ch].inboxMinDue < t1) {
      ++busy;
      lastBusy = ch;
    }
  }
  if (busy == 0) return;
  if (threads_.empty() || busy == 1) {
    eventsBase_ = 0;  // inline windows count into events_ directly
    if (busy == 1) {
      runChannelWindow(lastBusy, &events_);
    } else {
      for (std::size_t ch = 0; ch < chQs_.size(); ++ch)
        runChannelWindow(ch, &events_);
    }
    return;
  }
  eventsBase_ = events_;
  for (auto& c : shareEvents_) c = 0;
  const int n = static_cast<int>(threads_.size());
  phaseDone_.store(0, std::memory_order_relaxed);
  publishPhase();
  // Main runs share 0 itself. A failure there is caught like a worker's:
  // the workers are mid-phase, so the barrier must complete before the
  // failure is re-raised below.
  try {
    runChannelPhase(0);
  } catch (...) {
    shareErr_[0] = std::current_exception();
  }
  for (unsigned spins = 0; phaseDone_.load(std::memory_order_acquire) != n;) {
    if (spin_) {
      relax(++spins);
      continue;
    }
    mainParked_.store(true);
    {
      std::unique_lock<std::mutex> l(doneMu_);
      doneCv_.wait(l, [&] { return phaseDone_.load() == n; });
    }
    mainParked_.store(false);
  }
  for (const std::uint64_t c : shareEvents_) events_ += c;
  for (auto& err : shareErr_) {
    if (!err) continue;
    const std::exception_ptr ep = err;
    err = nullptr;
    try {
      std::rethrow_exception(ep);
    } catch (const CheckFailure& cf) {
      // Re-dispatch on the calling thread so a trapped caller (a runPlan
      // worker) records it and an untrapped one aborts with the original
      // message.
      mb::detail::raiseCheckFailure(cf.message);
    }
  }
}

void ShardedEngine::drainCommands() {
  if (cmdSink_ == nullptr) return;
  bool any = false;
  for (const BufferedCommandLog* b : cmdBufs_)
    if (!b->entries_.empty()) any = true;
  if (!any) return;
  // K-way merge by the producing execution's key; entries within one buffer
  // are already key-ordered (a channel fires its events in key order), ties
  // inside one execution keep buffer order, and cross-buffer keys never tie
  // (stamps from different channels differ).
  std::vector<std::size_t> cur(cmdBufs_.size(), 0);
  for (;;) {
    int best = -1;
    for (std::size_t i = 0; i < cmdBufs_.size(); ++i) {
      if (cur[i] >= cmdBufs_[i]->entries_.size()) continue;
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      const auto& a = cmdBufs_[i]->entries_[cur[i]];
      const auto& b =
          cmdBufs_[static_cast<std::size_t>(best)]->entries_[cur[static_cast<std::size_t>(best)]];
      if (EventQueue::keyBefore(a.execWhen, a.execStamp, b.execWhen, b.execStamp))
        best = static_cast<int>(i);
    }
    if (best < 0) break;
    const auto bi = static_cast<std::size_t>(best);
    cmdSink_->onEvent(cmdBufs_[bi]->entries_[cur[bi]++].ev);
  }
  for (BufferedCommandLog* b : cmdBufs_) b->entries_.clear();
}

void ShardedEngine::run(Tick checkpointAt,
                        const std::function<void()>& onCheckpoint,
                        const std::function<bool()>& stopFn) {
  // With spin_, pool threads stay awake (spinning between windows) for the
  // whole run, and park again when it returns or throws.
  struct AwakeForRun {
    std::atomic<bool>& awake;
    ~AwakeForRun() { awake.store(false, std::memory_order_relaxed); }
  } awakeForRun{awake_};
#if defined(__linux__)
  callerCpu_.store(sched_getcpu(), std::memory_order_relaxed);
#endif
  awake_.store(spin_, std::memory_order_relaxed);
  bool ckptPending = checkpointAt >= 0;
  for (;;) {
    if (stopFn()) break;  // restore-into-finished, or stop in last window
    const Tick t0 = minNextTime();
    if (t0 == kTickNever) break;  // drained (caller decides if that is legal)
    if (ckptPending && t0 >= checkpointAt) {
      onCheckpoint();
      ckptPending = false;
    }
    Tick uncut = t0 + opts_.lookahead;
    if (ckptPending && checkpointAt < uncut) uncut = checkpointAt;
    const Tick t1 = forwardCut(uncut);
    MB_DCHECK(t1 <= t0 + opts_.lookahead);
    deliverToCpu(t1);

    // Phase A: the CPU hierarchy runs serially to completion first, so
    // zero-latency CPU -> channel admissions still land inside this window.
    // postEnqueue may lower windowEnd_ under the loop (the forward cut);
    // every CPU event run so far precedes the cut, which is after the
    // posting event's tick.
    windowEnd_.store(t1, std::memory_order_relaxed);
    phaseHasStop_ = false;
    bool stopped = false;
    while (cpuQ_.nextEventTime() < windowEnd_.load(std::memory_order_relaxed)) {
      const Tick when = cpuQ_.nextEventTime();
      const EventStamp st = *cpuQ_.peekStamp();
      cpuQ_.step();
      ++events_;
      MB_CHECK_MSG(events_ < opts_.maxEvents,
                   "event cap hit at t=%lldps — runaway configuration?",
                   static_cast<long long>(when));
      if (stopFn()) {
        // Truncate the window at this event's key: channel events ordered
        // after it would not have fired under a single queue either.
        stopped = true;
        phaseHasStop_ = true;
        stopWhen_ = when;
        stopStamp_ = st;
        break;
      }
    }

    // Phase B: channels, in parallel, up to the final window end, which
    // the lookahead guard in postCompletion checks against.
    const Tick end = windowEnd_.load(std::memory_order_relaxed);
    ++windows_;
    if (end < uncut) ++windowsCut_;
    runPhaseB(end);
    drainCommands();
    if (stopped) break;
  }
}

std::uint64_t ShardedEngine::processedCount() const {
  std::uint64_t n = cpuQ_.processedCount();
  for (const EventQueue* q : chQs_) n += q->processedCount();
  return n;
}

Tick ShardedEngine::maxNow() const {
  Tick t = cpuQ_.now();
  for (const EventQueue* q : chQs_)
    if (q->now() > t) t = q->now();
  return t;
}

void ShardedEngine::restoreClocks(Tick now) {
  // A buffered admission is due at or after the window boundary the
  // snapshot was cut at, so never before the capture time.
  for (const Lane& lane : lanes_)
    MB_CHECK_MSG(lane.inboxMinDue >= now,
                 "buffered admission due at %lldps, before the capture time %lldps",
                 static_cast<long long>(lane.inboxMinDue), static_cast<long long>(now));
  cpuQ_.restoreClock(now);
  for (EventQueue* q : chQs_) q->restoreClock(now);
}

void ShardedEngine::save(ckpt::Writer& w) const {
  w.u32(static_cast<std::uint32_t>(chQs_.size()));
  w.u64(cpuQ_.nextCounter());
  for (const EventQueue* q : chQs_) w.u64(q->nextCounter());
  for (const Lane& lane : lanes_) {
    w.u64(lane.inbox.size());
    for (const ChannelMsg& m : lane.inbox) {
      w.i64(m.due);
      ckpt::saveStamp(w, m.stamp);
      w.u64(m.lineAddr);
      w.i32(m.core);
      w.b(m.write);
    }
  }
  // Outboxes are intentionally absent: every buffered completion corresponds
  // to a live slot in some controller's MC section, which re-posts it on
  // replay.
}

void ShardedEngine::load(ckpt::Reader& r) {
  if (r.u32() != chQs_.size()) {
    r.fail();
    return;
  }
  cpuQ_.restoreNextCounter(r.u64());
  for (EventQueue* q : chQs_) q->restoreNextCounter(r.u64());
  for (Lane& lane : lanes_) {
    const std::uint64_t n = r.count(8 + 40 + 8 + 4 + 1);
    auto& buf = lane.inbox;
    buf.clear();
    buf.reserve(n);
    lane.inboxMinDue = kTickNever;
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      ChannelMsg m{};
      m.due = r.i64();
      m.stamp = ckpt::loadStamp(r);
      m.lineAddr = r.u64();
      m.core = r.i32();
      m.write = r.b();
      if (m.due < lane.inboxMinDue) lane.inboxMinDue = m.due;
      buf.push_back(m);
    }
  }
}

void ShardedEngine::forEachAdmission(
    const std::function<void(ChannelId, std::uint64_t, CoreId, bool)>& fn) const {
  for (std::size_t ch = 0; ch < lanes_.size(); ++ch)
    for (const ChannelMsg& m : lanes_[ch].inbox)
      fn(static_cast<ChannelId>(ch), m.lineAddr, m.core, m.write);
}

// ---------------------------------------------------------------------------
// Wiring

namespace {

std::vector<EventQueue*> queuePointers(
    const std::vector<std::unique_ptr<EventQueue>>& queues) {
  std::vector<EventQueue*> out;
  for (const auto& q : queues) out.push_back(q.get());
  return out;
}

ShardEngineOptions runOptions(const dram::TimingParams& timing, int workers,
                              std::size_t channels) {
  ShardEngineOptions opts;
  // Lookahead: a CAS-served read reaches the CPU no sooner than tAA + tBURST
  // after its CAS. The one faster channel -> CPU path, a read forwarded from
  // the write queue one command transfer (tCMD) after its admission, cuts
  // its window short (the write query). CPU -> channel can be zero-latency,
  // which is safe because the CPU phase precedes the channel phase in a
  // window.
  opts.lookahead = timing.tAA + timing.tBURST;
  opts.forwardLatency = timing.tCMD;
  opts.workers = std::clamp(workers, 1, static_cast<int>(channels));
  return opts;
}

}  // namespace

ShardedEngine::ShardedEngine(
    EventQueue& cpuQueue, const std::vector<std::unique_ptr<EventQueue>>& channelQueues,
    cpu::MemoryHierarchy& hier,
    const std::vector<std::unique_ptr<mc::MemoryController>>& mcs,
    const dram::TimingParams& timing, int workers)
    : ShardedEngine(cpuQueue, queuePointers(channelQueues),
                    runOptions(timing, workers, channelQueues.size())) {
  setDeliverEnqueue([h = &hier](ChannelId ch, Tick /*due*/, std::uint64_t lineAddr,
                                CoreId core, bool isWrite) {
    h->deliverEnqueue(ch, lineAddr, core, isWrite);
  });
  setWriteQuery([m = &mcs](ChannelId ch, std::uint64_t lineAddr) {
    return (*m)[static_cast<std::size_t>(ch)]->holdsWrite(lineAddr);
  });
  hier.setMailbox(this);
  for (const auto& mc : mcs) mc->setMailbox(this);
}

}  // namespace mb::sim
