#include "mc/controller.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mb::mc {

MemoryController::MemoryController(ChannelId id, const dram::Geometry& geom,
                                   const dram::TimingParams& timing,
                                   const dram::EnergyParams& energy,
                                   const core::AddressMap& addressMap,
                                   const ControllerConfig& config, EventQueue& eventQueue)
    : id_(id),
      geom_(geom),
      map_(addressMap),
      cfg_(config),
      eq_(eventQueue),
      channel_(geom, timing),
      meter_(energy),
      scheduler_(config.scheduler),
      policy_(core::makePagePolicy(config.pagePolicy)) {
  speculations_.resize(static_cast<std::size_t>(channel_.ubankCount()));
  rowUsers_.resize(static_cast<std::size_t>(channel_.ubankCount()));
  queuedPerUbank_.resize(static_cast<std::size_t>(channel_.ubankCount()));
  channel_.refreshEnabled = cfg_.refreshEnabled;
  channel_.perBankRefresh = cfg_.perBankRefresh;
  if (cfg_.enableTimingCheck) {
    checker_.emplace(CmdTraceConfig{geom, timing, energy, map_.interleaveBaseBit(),
                                    map_.xorBankHash()},
                     id_);
    checker_->diagnostics = cfg_.diagnostics;
  }
}

void MemoryController::enqueue(MemRequest req) {
  req.id = nextRequestId_++;
  req.arrival = eq_.now();
  MB_CHECK_MSG(req.arrival <= kMaxArrival,
               "request admitted at %lldps, past the scheduler key's arrival range",
               static_cast<long long>(req.arrival));
  req.da = map_.decompose(req.addr);
  // Force the decomposed channel to this controller: the caller routes by
  // the same address map, so this is a consistency check, not a remap.
  MB_DCHECK(req.da.channel == id_);

  const std::int64_t flat = req.da.flatUbank(geom_);
  const int ub = channel_.ubankIndex(req.da);
  // Resolve any outstanding speculative page decision for this μbank now
  // that the next access is known (§V: the predictor trains on whether the
  // next access would have hit the previously open row).
  resolveSpeculation(flat, ub, req.da.row);
  // A policy-requested idle precharge is cancelled if the incoming request
  // wants exactly the still-open row.
  auto pc = pendingCloses_.find(flat);
  if (pc != pendingCloses_.end() && channel_.openRow(ub) == req.da.row)
    pendingCloses_.erase(pc);
  // Oracle resolution: charge the retrospectively-best decision (§V).
  if (channel_.resolveLazy(req.da, ub) == ChannelState::LazyOutcome::Closed) {
    if (observed()) emit(oraclePreEvent(req.da, eq_.now()));
  }

  if (req.write) {
    writes_.inc();
    // Coalesce with an already-buffered write to the same line.
    if (holdsWrite(req.addr)) return;
    Pending p;
    p.req = std::move(req);
    p.flat = flat;
    p.ub = ub;
    writeQ_.push_back(pool_.alloc(std::move(p)));
    ++queuedPerUbank_[static_cast<std::size_t>(ub)];
    if (static_cast<int>(writeQ_.size()) >= cfg_.writeHighWatermark)
      drainingWrites_ = true;
  } else {
    reads_.inc();
    // Forward from a buffered write to the same line: the data is newer
    // than DRAM and available immediately after a queue lookup.
    if (holdsWrite(req.addr)) {
      forwarded_.inc();
      if (req.onComplete) {
        const Tick done = eq_.now() + channel_.timing().tCMD;
        scheduleCompletion(std::move(req.onComplete), done, req.addr, req.core);
      }
      return;
    }
    Pending p;
    p.req = std::move(req);
    p.flat = flat;
    p.ub = ub;
    const ReqHandle admitted = pool_.alloc(std::move(p));
    ++queuedPerUbank_[static_cast<std::size_t>(ub)];
    if (static_cast<int>(readQ_.size()) < cfg_.queueDepth) {
      scheduler_.onEnqueue(pool_.get(admitted).req);
      readQ_.push_back(admitted);
    } else {
      overflowQ_.push_back(admitted);
    }
    queueOcc_.update(eq_.now(),
                     static_cast<double>(readQ_.size() + overflowQ_.size()));
  }
  kick();
}

bool MemoryController::holdsWrite(std::uint64_t addr) const {
  for (const ReqHandle h : writeQ_)
    if (pool_.ref(h).req.addr == addr) return true;
  return false;
}

void MemoryController::resolveSpeculation(std::int64_t flat, int ub,
                                          std::int64_t incomingRow) {
  SpecSlot& slot = speculations_[static_cast<std::size_t>(ub)];
  if (!slot.live) return;
  const bool sameRow = slot.s.row == incomingRow;
  const bool predictedOpen = slot.s.decision == core::PageDecision::KeepOpen;
  specDecisions_.inc();
  if (predictedOpen == sameRow) specCorrect_.inc();
  policy_->observeOutcome(flat, slot.s.thread, sameRow);
  slot.live = false;
  --liveSpeculations_;
}

template <typename Fn>
bool MemoryController::anyServed(Fn&& fn) const {
  bool serveReads = false, serveWrites = false;
  serveFlags(serveReads, serveWrites);
  if (serveReads) {
    for (std::size_t i = 0; i < readQ_.size(); ++i)
      if (fn(readQ_[i], static_cast<int>(i))) return true;
  }
  if (serveWrites) {
    for (const ReqHandle h : writeQ_)
      if (fn(h, -1)) return true;
  }
  return false;
}

bool MemoryController::preBlocked(const Pending& p, bool pMarked) {
  // Do not steal an open row from an older request that still wants it —
  // but only if that request is itself schedulable right now (it then
  // outranks this precharge in every scheduler, so deferring cannot
  // livelock). An older row-user that is not currently a candidate (write
  // outside a drain burst) must not block progress indefinitely. A
  // batch-marked precharge is blocked only by marked row users (PAR-BS
  // fairness: the batch boundary must bound a row hog's damage).
  if (!rowUsersCurrent_) collectRowUsers();
  const RowUsers& u = rowUsers_[static_cast<std::size_t>(p.ub)];
  bool blocked = false;
  if (u.epoch == rowUserEpoch_ && u.oldestAny < p.req.arrival)
    blocked = (pMarked ? u.oldestMarked : u.oldestAny) < p.req.arrival;
  MB_DCHECK(blocked == preBlockedByOlderRowUser(p, pMarked));
  return blocked;
}

void MemoryController::collectRowUsers() {
  // One walk over the served queues per pass. oldestMarked is read only by
  // the guard of a marked precharge, and a pass that formed its batch
  // guards every precharge as unmarked (fullPass), so the table reads the
  // marking each guard reads.
  ++rowUserEpoch_;
  rowUsersCurrent_ = true;
  anyServed([&](ReqHandle h, int viewPos) {
    const Pending& q = pool_.ref(h);
    if (q.req.da.row != channel_.openRow(q.ub)) return false;
    RowUsers& u = rowUsers_[static_cast<std::size_t>(q.ub)];
    if (u.epoch != rowUserEpoch_) u = RowUsers{rowUserEpoch_, kTickNever, kTickNever};
    const Tick arrival = q.req.arrival;
    u.oldestAny = std::min(u.oldestAny, arrival);
    if (arrival < u.oldestMarked && scheduler_.markedAt(viewPos))
      u.oldestMarked = arrival;
    return false;
  });
}

bool MemoryController::preBlockedByOlderRowUser(const Pending& p, bool pMarked) const {
  const int ub = p.ub;
  if (!channel_.rowOpen(ub)) return false;
  const std::int64_t openRow = channel_.openRow(ub);
  return anyServed([&](ReqHandle h, int viewPos) {
    const Pending& q = pool_.ref(h);
    if (q.flat != p.flat || q.req.da.row != openRow ||
        q.req.arrival >= p.req.arrival)
      return false;
    return !pMarked || scheduler_.markedAt(viewPos);
  });
}

bool MemoryController::schedulerSeesReadWindow() const {
  if (scheduler_.kind() != SchedulerKind::ParBs) return true;
  const auto& view = scheduler_.view();
  if (view.size() != readQ_.size()) return false;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const MemRequest& q = pool_.get(readQ_[i]).req;
    if (view[i].id != q.id || view[i].thread != q.thread || view[i].arrival != q.arrival)
      return false;
  }
  return true;
}

void MemoryController::serveFlags(bool& reads, bool& writes) const {
  writes = drainingWrites_ || (readQ_.empty() && !writeQ_.empty());
  reads = !drainingWrites_ || readQ_.empty();
}

Tick MemoryController::earliestFor(const Pending& p, Tick now, DramCommand& cmdOut) const {
  const int ub = p.ub;
  const std::int64_t openRow = channel_.openRow(ub);
  if (openRow == p.req.da.row) {  // rows are non-negative, so this means open
    cmdOut = p.req.write ? DramCommand::Write : DramCommand::Read;
    return channel_.earliestCas(p.req.da, ub, p.req.write, now);
  }
  if (openRow < 0) {
    cmdOut = DramCommand::Act;
    return channel_.earliestAct(p.req.da, ub, now);
  }
  cmdOut = DramCommand::Pre;
  return channel_.earliestPre(p.req.da, ub, now);
}

template <SchedulerKind K>
MemoryController::FullPass MemoryController::walkServed(Tick now, bool guardMarks) {
  FullPass pass;
  rowUsersCurrent_ = false;
  anyServed([&](ReqHandle h, int viewPos) {
    const Pending& p = pool_.ref(h);
    DramCommand cmd{};
    const Tick earliest = earliestFor(p, now, cmd);
    if (cmd == DramCommand::Pre &&
        preBlocked(p, guardMarks && scheduler_.markedAt(viewPos)))
      return false;
    if (earliest > now) pass.minFuture = std::min(pass.minFuture, earliest);
    const bool rowHit = cmd == DramCommand::Read || cmd == DramCommand::Write;
    pass.best.offer(h, scheduler_.key<K>(viewPos, rowHit, p.req.arrival), earliest, now);
    return false;
  });
  return pass;
}

MemoryController::FullPass MemoryController::fullPass(Tick now) {
  // A batch formed here is formed from an empty marking, and this pass's
  // guards read that one; the keys read the new batch.
  const bool guardMarks = !scheduler_.formBatchIfDrained();
  FullPass pass;
  switch (scheduler_.kind()) {
    case SchedulerKind::Fcfs:
      pass = walkServed<SchedulerKind::Fcfs>(now, guardMarks);
      break;
    case SchedulerKind::FrFcfs:
      pass = walkServed<SchedulerKind::FrFcfs>(now, guardMarks);
      break;
    case SchedulerKind::ParBs:
      pass = walkServed<SchedulerKind::ParBs>(now, guardMarks);
      break;
  }
  MB_DCHECK(matchesReference(pass, now, guardMarks));
  return pass;
}

void MemoryController::buildCandidates(Tick now, bool guardMarks,
                                       std::vector<Candidate>& cands,
                                       std::vector<ReqHandle>& byCandidate,
                                       Tick& minFuture) {
  rowUsersCurrent_ = false;
  anyServed([&](ReqHandle h, int viewPos) {
    const Pending& p = pool_.ref(h);
    DramCommand cmd{};
    const Tick earliest = earliestFor(p, now, cmd);
    if (cmd == DramCommand::Pre &&
        preBlocked(p, guardMarks && scheduler_.markedAt(viewPos)))
      return false;
    Candidate& c = cands.emplace_back();
    c.viewPos = viewPos;
    c.id = p.req.id;
    c.thread = p.req.thread;
    c.arrival = p.req.arrival;
    c.earliestIssue = earliest;
    c.rowHit = (cmd == DramCommand::Read || cmd == DramCommand::Write);
    byCandidate.push_back(h);
    if (earliest > now) minFuture = std::min(minFuture, earliest);
    return false;
  });
}

bool MemoryController::matchesReference(const FullPass& pass, Tick now, bool guardMarks) {
  std::vector<Candidate> cands;
  std::vector<ReqHandle> byCandidate;
  Tick minFuture = kTickNever;
  buildCandidates(now, guardMarks, cands, byCandidate, minFuture);
  const Scheduler::PickPair ref = scheduler_.referencePick(cands, now);
  const auto same = [&](int idx, bool has, ReqHandle h) {
    return idx < 0 ? !has : has && byCandidate[static_cast<std::size_t>(idx)] == h;
  };
  const Tick overallAt = ref.overall < 0
                             ? kTickNever
                             : cands[static_cast<std::size_t>(ref.overall)].earliestIssue;
  return minFuture == pass.minFuture &&
         same(ref.issuable, pass.best.hasIssuable(), pass.best.issuable) &&
         same(ref.overall, pass.best.hasOverall(), pass.best.overall) &&
         overallAt == pass.best.overallAt;
}

Tick MemoryController::earliestWake(Tick now) {
  // Every earliest* starts at max(now, cmdBusFreeAt), so the bus-free tick
  // bounds each request from below: the scan stops at the first request
  // that reaches it. A precharge's guard only matters if it would lower the
  // minimum, so it is checked only then.
  const Tick floor = channel_.cmdBusFreeAt();
  MB_DCHECK(floor > now);
  rowUsersCurrent_ = false;
  Tick wake = kTickNever;
  anyServed([&](ReqHandle h, int viewPos) {  // true once `wake` reached the floor
    const Pending& p = pool_.ref(h);
    DramCommand cmd{};
    const Tick earliest = earliestFor(p, now, cmd);
    MB_DCHECK(earliest >= floor);
    if (earliest >= wake ||
        (cmd == DramCommand::Pre && preBlocked(p, scheduler_.markedAt(viewPos))))
      return false;
    wake = earliest;
    return wake == floor;
  });
  return wake;
}

Tick MemoryController::fullPassMinFuture(Tick now) {
  std::vector<Candidate> cands;
  std::vector<ReqHandle> byCandidate;
  Tick minFuture = kTickNever;
  buildCandidates(now, /*guardMarks=*/true, cands, byCandidate, minFuture);
  return minFuture;
}

void MemoryController::issueFor(ReqHandle h, Tick now) {
  Pending& p = pool_.get(h);
  DramCommand cmd{};
  const Tick earliest = earliestFor(p, now, cmd);
  // The pass may have formed a batch after the marking its guard read; that
  // can only unblock a precharge (forming needs an empty marking, under
  // which any older row user blocks), so the guard is not re-applied here.
  MB_DCHECK(cmd != DramCommand::Pre ||
            !preBlockedByOlderRowUser(p, scheduler_.isMarked(p.req.id)));
  MB_CHECK_MSG(earliest <= now,
               "scheduler committed %s for %s before it is legal: earliest=%lldps "
               "now=%lldps",
               commandName(cmd), p.req.da.toString().c_str(),
               static_cast<long long>(earliest), static_cast<long long>(now));
  if (commandTrace) commandTrace(cmd, p.req.da, now);
  switch (cmd) {
    case DramCommand::Pre: {
      p.sawConflict = true;
      channel_.commitPre(p.req.da, now);
      if (observed()) emit(commandEvent(DramCommand::Pre, p.req.da, now, -1, -1));
      break;
    }
    case DramCommand::Act: {
      p.sawAct = true;
      channel_.commitAct(p.req.da, now);
      meter_.onActivate(geom_.ubankRowBytes());
      if (observed()) emit(commandEvent(DramCommand::Act, p.req.da, now, -1, -1));
      break;
    }
    case DramCommand::Read:
    case DramCommand::Write: {
      const Tick dataEnd = channel_.commitCas(p.req.da, p.req.write, now);
      meter_.onCas(geom_.lineBytes, geom_.ubanksPerBank());
      if (observed())
        emit(commandEvent(cmd, p.req.da, now, now + channel_.timing().tAA, dataEnd));
      onRequestServiced(h, dataEnd);  // frees the arena slot; p is dead here
      break;
    }
    case DramCommand::Refresh:
      MB_CHECK(false && "refresh is not a per-request command");
  }
}

void MemoryController::onRequestServiced(ReqHandle h, Tick dataEnd) {
  Pending& p = pool_.get(h);
  const std::int64_t flat = p.flat;
  // Row-locality classification for this request.
  if (p.sawConflict) {
    rowConflicts_.inc();
  } else if (p.sawAct) {
    rowMisses_.inc();
  } else {
    rowHits_.inc();
  }
  policy_->onAccess(flat, !p.sawAct && !p.sawConflict);

  if (!p.req.write) {
    readLatencyNs_.add(toNs(dataEnd - p.req.arrival));
    if (p.req.onComplete) {
      scheduleCompletion(std::move(p.req.onComplete), dataEnd, p.req.addr,
                         p.req.core);
    }
  }

  const ThreadId thread = p.req.thread;
  const core::DramAddress da = p.req.da;
  const int ub = p.ub;

  // Remove from its queue, then release the slot; the handle is stale from
  // here on. The scheduler's view follows the read window by position.
  std::vector<ReqHandle>& q = p.req.write ? writeQ_ : readQ_;
  const auto at = std::find(q.begin(), q.end(), h);
  MB_CHECK_MSG(at != q.end(), "serviced request %llu (%s) not found in its queue",
               static_cast<unsigned long long>(p.req.id), p.req.da.toString().c_str());
  if (!p.req.write)
    scheduler_.onDequeue(static_cast<std::size_t>(at - q.begin()), p.req.id);
  q.erase(at);
  if (p.req.write && static_cast<int>(writeQ_.size()) <= cfg_.writeLowWatermark)
    drainingWrites_ = false;
  pool_.free(h);
  refillVisibleWindow();
  queueOcc_.update(eq_.now(), static_cast<double>(readQ_.size() + overflowQ_.size()));

  // Page management: if no queued work remains for this μbank, make a
  // speculative decision; otherwise the queue itself dictates the action
  // (the conventional controllers of §V inspect pending requests).
  if (--queuedPerUbank_[static_cast<std::size_t>(ub)] == 0)
    maybeSpeculate(da, flat, ub, thread);
}

void MemoryController::maybeSpeculate(const core::DramAddress& da,
                                      std::int64_t flat, int ub,
                                      ThreadId thread) {
  if (!channel_.rowOpen(ub)) return;
  const core::PageDecision decision = policy_->decide(flat, thread);
  switch (decision) {
    case core::PageDecision::KeepOpen:
      break;  // nothing to do: the row stays in the sense amplifiers
    case core::PageDecision::Close:
      pendingCloses_[flat] = da;
      break;
    case core::PageDecision::Lazy:
      channel_.markLazy(ub, channel_.earliestPre(da, ub, eq_.now()));
      break;
  }
  if (decision != core::PageDecision::Lazy) {
    SpecSlot& slot = speculations_[static_cast<std::size_t>(ub)];
    if (!slot.live) {
      slot.live = true;
      ++liveSpeculations_;
    }
    slot.s = Speculation{decision, channel_.openRow(ub), thread};
  }
}

void MemoryController::refillVisibleWindow() {
  while (static_cast<int>(readQ_.size()) < cfg_.queueDepth && !overflowQ_.empty()) {
    const ReqHandle h = overflowQ_.front();
    overflowQ_.pop_front();
    scheduler_.onEnqueue(pool_.get(h).req);
    readQ_.push_back(h);
  }
}

void MemoryController::scheduleKick(Tick at) {
  if (at >= nextKickAt_) return;
  nextKickAt_ = at;
  armKick(at);
}

void MemoryController::armKick(Tick at) {
  // At most one outstanding wake-up event per tick: if one already exists it
  // will fire first among this tick's kick events anyway (earlier sequence)
  // and perform the work; a duplicate would be a guaranteed no-op. Keeping
  // the set deduplicated lets a checkpoint reify it exactly.
  const auto it = std::lower_bound(
      kickEvents_.begin(), kickEvents_.end(), at,
      [](const KickEvent& e, Tick t) { return e.at < t; });
  if (it != kickEvents_.end() && it->at == at) return;
  const EventStamp stamp = eq_.scheduleAt(at, [this, at] { onKickEventFired(at); });
  kickEvents_.insert(it, KickEvent{at, stamp});
}

void MemoryController::onKickEventFired(Tick at) {
  eraseKickEvent(at);
  if (nextKickAt_ == at) {
    nextKickAt_ = kTickNever;
    kick();
  }
}

void MemoryController::eraseKickEvent(Tick at) {
  const auto it = std::lower_bound(
      kickEvents_.begin(), kickEvents_.end(), at,
      [](const KickEvent& e, Tick t) { return e.at < t; });
  MB_DCHECK(it != kickEvents_.end() && it->at == at);
  if (it != kickEvents_.end() && it->at == at) kickEvents_.erase(it);
}

int MemoryController::allocCompletionSlot() {
  if (freeCompletionSlot_ >= 0) {
    const int slot = freeCompletionSlot_;
    freeCompletionSlot_ = completionSlots_[static_cast<size_t>(slot)].nextFree;
    return slot;
  }
  completionSlots_.emplace_back();
  return static_cast<int>(completionSlots_.size() - 1);
}

void MemoryController::scheduleCompletion(CompletionFn cb, Tick due,
                                          std::uint64_t addr, CoreId core) {
  const std::uint64_t token = nextCompletionToken_++;
  const int slot = allocCompletionSlot();
  auto& s = completionSlots_[static_cast<size_t>(slot)];
  s.live = true;
  s.token = token;
  s.c.due = due;
  s.c.addr = addr;
  s.c.core = core;
  // The channel-local event releases the slot at `due`; in mailbox mode the
  // data delivery itself travels as a cross-shard message stamped with the
  // *next* counter of the same execution, so the (release, delivery) pair
  // occupies two consecutive positions in this queue's ordering — nothing
  // can ever sort between them, which keeps the single-queue execution
  // order identical to running both halves as one event.
  s.c.stamp = eq_.scheduleAt(due, [this, slot, token] { fireCompletion(slot, token); });
  ++liveCompletions_;
  if (mailbox_ != nullptr) {
    s.c.cb = nullptr;
    s.c.msgStamp = eq_.issueStamp();
    MB_DCHECK(s.c.msgStamp.counter == s.c.stamp.counter + 1);
    mailbox_->postCompletion(id_, due, s.c.msgStamp, std::move(cb));
  } else {
    s.c.cb = std::move(cb);
  }
}

void MemoryController::fireCompletion(int slot, std::uint64_t token) {
  auto& s = completionSlots_[static_cast<size_t>(slot)];
  // The token pins the event to the slot's occupant at scheduling time: a
  // recycled slot with a different token would mean an event outlived its
  // completion, which the free-list discipline forbids.
  MB_CHECK(s.live && s.token == token);
  auto cb = std::move(s.c.cb);
  const Tick due = s.c.due;
  // Free the slot before running the callback: it may re-enter
  // scheduleCompletion (forwarded read) and legitimately reuse this slot
  // under a fresh token.
  s.live = false;
  s.c.cb = nullptr;
  s.nextFree = freeCompletionSlot_;
  freeCompletionSlot_ = slot;
  --liveCompletions_;
  // Empty in mailbox mode: the delivery already left through the mailbox at
  // scheduling time and this event only recycles the slot.
  if (cb) cb(due);
}

void MemoryController::emit(const CmdEvent& ev) {
  if (checker_) checker_->audit(ev);
  if (cfg_.commandLog) cfg_.commandLog->onEvent(ev);
}

void MemoryController::kick() {
  const Tick now = eq_.now();
  lastKickTick_ = now;
  channel_.maybeRefresh(now, [this, now](int rank, int bank) {
    meter_.onRefresh(bank < 0 ? 1.0 : 1.0 / geom_.banksPerRank);
    if (observed()) emit(refreshEvent(id_, rank, bank, now));
  });

  for (;;) {
    Tick minFuture = kTickNever;
    if (channel_.cmdBusFreeAt() > eq_.now()) {
      // Wake-only pass: nothing can issue while the command bus is busy, so
      // only the wake tick and the batch upkeep remain.
      minFuture = earliestWake(eq_.now());
      MB_DCHECK(minFuture == fullPassMinFuture(eq_.now()));
      scheduler_.formBatchIfDrained();
    } else {
      const FullPass pass = fullPass(eq_.now());
      minFuture = pass.minFuture;
      if (pass.best.hasIssuable()) {
        // Priority gate: if the scheduler's overall favourite (ignoring
        // issue readiness) is a different, imminently-ready command, hold
        // the bus for it. Without this, a stream of back-to-back row hits
        // can starve a higher-priority precharge forever: every hit CAS
        // pushes the victim's tRTP window just past "now" again (priority
        // inversion).
        if (pass.best.overall != pass.best.issuable) {
          const Tick bestAt = pass.best.overallAt;
          if (bestAt > eq_.now() &&
              bestAt - eq_.now() <= 2 * channel_.timing().tCCD) {
            scheduleKick(bestAt);
            break;
          }
        }
        issueFor(pass.best.issuable, eq_.now());
        // The command bus is now busy for tCMD, so the next iteration is a
        // wake-only pass.
        continue;
      }
    }

    // No request command issuable now: opportunistically retire one idle
    // precharge requested by the page policy.
    bool issuedClose = false;
    for (auto it = pendingCloses_.begin(); it != pendingCloses_.end(); ++it) {
      const auto& da = it->second;
      const int ub = channel_.ubankIndex(da);
      if (!channel_.rowOpen(ub)) {
        pendingCloses_.erase(it);
        issuedClose = true;  // stale entry; rescan
        break;
      }
      const Tick e = channel_.earliestPre(da, ub, eq_.now());
      if (e <= eq_.now()) {
        channel_.commitPre(da, ub, eq_.now());
        if (observed()) emit(commandEvent(DramCommand::Pre, da, eq_.now(), -1, -1));
        pendingCloses_.erase(it);
        issuedClose = true;
        break;
      }
      minFuture = std::min(minFuture, e);
    }
    if (issuedClose) continue;

    const Tick refreshDue = channel_.nextRefreshDue();
    Tick wake = std::min(minFuture, refreshDue <= eq_.now() ? eq_.now() + channel_.timing().tCMD
                                                            : refreshDue);
    if (outstanding() == 0 && pendingCloses_.empty()) {
      // Fully idle: no need to wake for refresh bookkeeping; the next
      // enqueue will catch up on due refreshes.
      wake = minFuture;
    }
    if (wake != kTickNever && wake > eq_.now()) scheduleKick(wake);
    break;
  }
}

ControllerStats MemoryController::stats() const {
  ControllerStats s;
  s.reads = reads_.value();
  s.writes = writes_.value();
  s.rowHits = rowHits_.value();
  s.rowMisses = rowMisses_.value();
  s.rowConflicts = rowConflicts_.value();
  s.forwardedReads = forwarded_.value();
  s.specDecisions = specDecisions_.value();
  s.specCorrect = specCorrect_.value();
  s.avgReadLatencyNs = readLatencyNs_.mean();
  s.avgQueueOccupancy = queueOcc_.average(finalizedAt_ > 0 ? finalizedAt_ : eq_.now());
  s.dataBusUtilization =
      channel_.dataBusUtilization(finalizedAt_ > 0 ? finalizedAt_ : eq_.now());
  s.activations = meter_.activations();
  s.refreshes = meter_.refreshes();
  return s;
}

void MemoryController::finalize(Tick simEnd) {
  finalizedAt_ = simEnd;
  meter_.finalizeStatic(simEnd, geom_.ranksPerChannel);
}

void MemoryController::savePending(ckpt::Writer& w, const Pending& p) const {
  w.u64(p.req.id);
  w.u64(p.req.addr);
  w.b(p.req.write);
  w.i32(p.req.core);
  w.i32(p.req.thread);
  w.i64(p.req.arrival);
  w.b(p.sawConflict);
  w.b(p.sawAct);
  w.b(static_cast<bool>(p.req.onComplete));
}

ReqHandle MemoryController::loadPending(ckpt::Reader& r) {
  Pending p;
  p.req.id = r.u64();
  p.req.addr = r.u64();
  p.req.write = r.b();
  p.req.core = r.i32();
  p.req.thread = r.i32();
  p.req.arrival = r.i64();
  p.sawConflict = r.b();
  p.sawAct = r.b();
  const bool hasCb = r.b();
  if (p.req.arrival < 0 || p.req.arrival > kMaxArrival) r.fail();  // the key's range
  if (!r.ok()) return pool_.alloc(std::move(p));
  p.req.da = map_.decompose(p.req.addr);
  p.flat = p.req.da.flatUbank(geom_);
  p.ub = channel_.ubankIndex(p.req.da);
  if (hasCb) {
    if (!completionFactory) {
      r.fail();
      return pool_.alloc(std::move(p));
    }
    p.req.onComplete = completionFactory(p.req.addr, p.req.core);
  }
  return pool_.alloc(std::move(p));
}

void MemoryController::save(ckpt::Writer& w) const {
  channel_.save(w);
  meter_.save(w);
  scheduler_.save(w);
  policy_->save(w);
  w.b(checker_.has_value());
  if (checker_) checker_->save(w);

  auto saveQueue = [&](const auto& q) {
    w.u64(q.size());
    for (const ReqHandle h : q) savePending(w, pool_.get(h));
  };
  saveQueue(readQ_);
  saveQueue(overflowQ_);
  saveQueue(writeQ_);
  w.b(drainingWrites_);

  w.u64(pendingCloses_.size());
  for (const auto& [flat, da] : pendingCloses_) {
    w.i64(flat);
    w.i32(da.channel);
    w.i32(da.rank);
    w.i32(da.bank);
    w.i32(da.ubank);
    w.i64(da.row);
    w.i64(da.column);
  }
  // Dense slots written in index order with flat-μbank keys: identical
  // bytes to the sorted-map layout this table replaces (flat id is
  // channelBase + ubankIndex for a fixed channel, so index order IS
  // ascending key order).
  const std::int64_t channelBase =
      static_cast<std::int64_t>(id_) * channel_.ubankCount();
  w.u64(static_cast<std::uint64_t>(liveSpeculations_));
  for (std::size_t ub = 0; ub < speculations_.size(); ++ub) {
    const SpecSlot& slot = speculations_[ub];
    if (!slot.live) continue;
    w.i64(channelBase + static_cast<std::int64_t>(ub));
    w.u8(static_cast<std::uint8_t>(slot.s.decision));
    w.i64(slot.s.row);
    w.i32(slot.s.thread);
  }

  w.i64(nextKickAt_);
  w.i64(lastKickTick_);
  w.u64(kickEvents_.size());
  for (const auto& e : kickEvents_) {  // vector is sorted ascending by tick
    w.i64(e.at);
    ckpt::saveStamp(w, e.stamp);
  }
  w.u64(nextRequestId_);
  w.u64(nextCompletionToken_);
  // Live pool slots, written in ascending-token order — byte-identical to
  // the std::map<token, ...> layout this pool replaced.
  std::vector<const CompletionSlot*> liveSlots;
  liveSlots.reserve(liveCompletions_);
  for (const auto& s : completionSlots_)
    if (s.live) liveSlots.push_back(&s);
  std::sort(liveSlots.begin(), liveSlots.end(),
            [](const CompletionSlot* a, const CompletionSlot* b) {
              return a->token < b->token;
            });
  w.u64(liveSlots.size());
  for (const CompletionSlot* s : liveSlots) {
    w.u64(s->token);
    ckpt::saveStamp(w, s->c.stamp);
    ckpt::saveStamp(w, s->c.msgStamp);
    w.i64(s->c.due);
    w.u64(s->c.addr);
    w.i32(s->c.core);
  }

  reads_.save(w);
  writes_.save(w);
  rowHits_.save(w);
  rowMisses_.save(w);
  rowConflicts_.save(w);
  forwarded_.save(w);
  specDecisions_.save(w);
  specCorrect_.save(w);
  readLatencyNs_.save(w);
  queueOcc_.save(w);
  w.i64(finalizedAt_);
}

void MemoryController::load(ckpt::Reader& r) {
  channel_.load(r);
  meter_.load(r);
  scheduler_.load(r);
  policy_->load(r);
  const bool hadChecker = r.b();
  if (hadChecker != checker_.has_value()) {
    r.fail();
    return;
  }
  if (checker_) checker_->load(r);

  pool_.clear();  // queues are rebuilt from scratch below
  // Each queue holds one kind of request: a serviced request leaves the
  // queue its kind names.
  auto loadQueue = [&](auto& q, bool writes) {
    q.clear();
    const std::uint64_t n = r.count(28);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      q.push_back(loadPending(r));
      if (r.ok() && pool_.get(q.back()).req.write != writes) r.fail();
    }
    if (!r.ok()) q.clear();
  };
  loadQueue(readQ_, false);
  loadQueue(overflowQ_, false);
  loadQueue(writeQ_, true);
  drainingWrites_ = r.b();
  queuedPerUbank_.assign(static_cast<std::size_t>(channel_.ubankCount()), 0);
  auto countQueue = [&](const auto& q) {
    for (const ReqHandle h : q) ++queuedPerUbank_[static_cast<std::size_t>(pool_.get(h).ub)];
  };
  countQueue(readQ_);
  countQueue(overflowQ_);
  countQueue(writeQ_);
  // PAR-BS reads its marks by read-window position.
  if (!schedulerSeesReadWindow()) r.fail();

  pendingCloses_.clear();
  const std::uint64_t nCloses = r.count(32);
  for (std::uint64_t i = 0; i < nCloses && r.ok(); ++i) {
    const std::int64_t flat = r.i64();
    core::DramAddress da;
    da.channel = r.i32();
    da.rank = r.i32();
    da.bank = r.i32();
    da.ubank = r.i32();
    da.row = r.i64();
    da.column = r.i64();
    pendingCloses_.emplace(flat, da);
  }
  speculations_.assign(static_cast<std::size_t>(channel_.ubankCount()),
                       SpecSlot{});
  liveSpeculations_ = 0;
  const std::uint64_t nSpecs = r.count(21);
  const std::int64_t specBase =
      static_cast<std::int64_t>(id_) * channel_.ubankCount();
  for (std::uint64_t i = 0; i < nSpecs && r.ok(); ++i) {
    const std::int64_t flat = r.i64();
    const std::int64_t ub = flat - specBase;
    // Hostile-snapshot guard: the key must be one of this channel's μbanks.
    if (ub < 0 || ub >= channel_.ubankCount()) {
      r.fail();
      return;
    }
    const std::uint8_t decision = r.u8();
    if (decision > static_cast<std::uint8_t>(core::PageDecision::Lazy)) {
      r.fail();
      return;
    }
    SpecSlot& slot = speculations_[static_cast<std::size_t>(ub)];
    if (!slot.live) {
      slot.live = true;
      ++liveSpeculations_;
    }
    slot.s.decision = static_cast<core::PageDecision>(decision);
    slot.s.row = r.i64();
    slot.s.thread = r.i32();
  }

  nextKickAt_ = r.i64();
  lastKickTick_ = r.i64();
  kickEvents_.clear();
  const std::uint64_t nKicks = r.count(16);
  for (std::uint64_t i = 0; i < nKicks && r.ok(); ++i) {
    const Tick at = r.i64();
    const EventStamp stamp = ckpt::loadStamp(r);
    // The on-disk set is written sorted and deduplicated; anything else is
    // a corrupt or hand-edited snapshot, and accepting it would break the
    // sorted-vector invariant armKick/eraseKickEvent rely on.
    if (!kickEvents_.empty() && at <= kickEvents_.back().at) {
      r.fail();
      return;
    }
    kickEvents_.push_back(KickEvent{at, stamp});
  }
  nextRequestId_ = r.u64();
  nextCompletionToken_ = r.u64();
  completionSlots_.clear();
  freeCompletionSlot_ = -1;
  liveCompletions_ = 0;
  const std::uint64_t nCompl = r.count(36);
  std::uint64_t prevToken = 0;
  for (std::uint64_t i = 0; i < nCompl && r.ok(); ++i) {
    const std::uint64_t token = r.u64();
    if (i > 0 && token <= prevToken) {  // written ascending; reject otherwise
      r.fail();
      return;
    }
    prevToken = token;
    CompletionSlot s;
    s.live = true;
    s.token = token;
    s.c.stamp = ckpt::loadStamp(r);
    s.c.msgStamp = ckpt::loadStamp(r);
    s.c.due = r.i64();
    s.c.addr = r.u64();
    s.c.core = r.i32();
    if (!r.ok()) break;
    if (!completionFactory) {
      r.fail();
      return;
    }
    // In mailbox mode the callback travels as a re-posted message (see
    // reschedule); the slot only holds it when completions run locally.
    if (mailbox_ == nullptr) s.c.cb = completionFactory(s.c.addr, s.c.core);
    completionSlots_.push_back(std::move(s));
    ++liveCompletions_;
  }

  reads_.load(r);
  writes_.load(r);
  rowHits_.load(r);
  rowMisses_.load(r);
  rowConflicts_.load(r);
  forwarded_.load(r);
  specDecisions_.load(r);
  specCorrect_.load(r);
  readLatencyNs_.load(r);
  queueOcc_.load(r);
  finalizedAt_ = r.i64();
}

void MemoryController::reschedule() {
  for (const auto& k : kickEvents_) {
    const Tick t = k.at;
    eq_.scheduleStamped(t, k.stamp, [this, t] { onKickEventFired(t); });
  }
  for (std::size_t i = 0; i < completionSlots_.size(); ++i) {
    const auto& s = completionSlots_[i];
    if (!s.live) continue;
    const int slot = static_cast<int>(i);
    eq_.scheduleStamped(s.c.due, s.c.stamp,
                        [this, slot, tok = s.token] { fireCompletion(slot, tok); });
    // Re-post the in-flight delivery message under its original stamp; the
    // live slot is the proof the message had not yet fired at capture time
    // (delivery and release share a due tick and fire in the same window).
    if (mailbox_ != nullptr) {
      mailbox_->postCompletion(id_, s.c.due, s.c.msgStamp,
                               completionFactory(s.c.addr, s.c.core));
    }
  }
}

}  // namespace mb::mc
