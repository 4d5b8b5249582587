#include "cpu/core.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mb::cpu {

RobCore::RobCore(CoreId id, const CoreParams& params, trace::TraceSource& trace,
                 MemoryHierarchy& hierarchy, EventQueue& eventQueue)
    : id_(id), p_(params), trace_(trace), hier_(hierarchy), eq_(eventQueue) {
  MB_CHECK(p_.issueWidth >= 1 && p_.robSize >= 2 && p_.cyclePs > 0);
  ring_.resize(static_cast<size_t>(p_.robSize));
  slotTick_ = std::max<Tick>(1, p_.cyclePs / p_.issueWidth);
}

void RobCore::start() {
  stepScheduled_ = true;
  stepAt_ = eq_.now();
  stepStamp_ = eq_.scheduleAt(stepAt_, [this] {
    stepScheduled_ = false;
    step();
  });
}

double RobCore::ipc() const {
  if (budgetTick_ <= 0) return 0.0;
  const double cyclesElapsed =
      static_cast<double>(budgetTick_) / static_cast<double>(p_.cyclePs);
  return static_cast<double>(instrsRetired()) / cyclesElapsed;
}

bool RobCore::dispatchCompute() {
  // Fast path: nothing pending anywhere in the window means the ROB
  // constraint cannot bind harder than the issue rate over a whole window
  // (robSize / issueWidth cycles >> execLat), so the stretch advances in bulk.
  if (pendingSlots_ == 0 && gapLeft_ > static_cast<std::uint32_t>(p_.robSize)) {
    dispatchClock_ += static_cast<Tick>(gapLeft_) * slotTick_;
    const Tick completion = dispatchClock_ + execLatency();
    for (auto& s : ring_) s = Slot{completion, false};
    idx_ += gapLeft_;
    instrsRetired_ += gapLeft_;
    gapLeft_ = 0;
    return true;
  }
  while (gapLeft_ > 0) {
    const auto slot = static_cast<size_t>(idx_ % static_cast<std::uint64_t>(p_.robSize));
    if (ring_[slot].pending) {
      wait_ = WaitKind::RobSlot;
      waitSlot_ = static_cast<int>(slot);
      return false;
    }
    const Tick d = std::max(dispatchClock_ + slotTick_, ring_[slot].completion);
    dispatchClock_ = d;
    ring_[slot] = Slot{d + execLatency(), false};
    ++idx_;
    ++instrsRetired_;
    --gapLeft_;
  }
  return true;
}

bool RobCore::dispatchMemOp() {
  const auto slot = static_cast<size_t>(idx_ % static_cast<std::uint64_t>(p_.robSize));
  if (ring_[slot].pending) {
    wait_ = WaitKind::RobSlot;
    waitSlot_ = static_cast<int>(slot);
    return false;
  }
  if (cur_.dependent && lastLoadPending_) {
    wait_ = WaitKind::Dependence;
    waitSlot_ = lastLoadSlot_;
    return false;
  }
  if (!cur_.write && outstandingLoads_ >= p_.mshrs) {
    wait_ = WaitKind::Mshr;
    waitSlot_ = -1;
    return false;
  }
  if (cur_.write && outstandingStores_ >= p_.storeBuffer) {
    wait_ = WaitKind::StoreBuffer;
    waitSlot_ = -1;
    return false;
  }

  Tick d = std::max(dispatchClock_ + slotTick_, ring_[slot].completion);
  if (cur_.dependent) d = std::max(d, lastLoadCompletion_);
  dispatchClock_ = d;

  if (cur_.write) {
    // Stores retire through the store buffer: one cycle for the core; the
    // hierarchy handles the fill/ownership traffic asynchronously, but a
    // bounded number of fetch-for-ownership misses may be in flight.
    ring_[slot] = Slot{d + p_.cyclePs, false};
    auto result = hier_.access(id_, cur_.addr, true, d, makeMemCallback(-1), -1);
    if (!result.immediate) ++outstandingStores_;
  } else {
    auto result = hier_.access(id_, cur_.addr, false, d,
                               makeMemCallback(static_cast<int>(slot)),
                               static_cast<int>(slot));
    if (result.immediate) {
      ring_[slot] = Slot{d + result.latency, false};
      lastLoadPending_ = false;
      lastLoadCompletion_ = d + result.latency;
    } else {
      ring_[slot] = Slot{kTickNever, true};
      ++pendingSlots_;
      ++outstandingLoads_;
      lastLoadPending_ = true;
    }
    lastLoadSlot_ = static_cast<int>(slot);
  }
  ++idx_;
  ++instrsRetired_;
  ++recordsDone_;
  haveCur_ = false;
  return true;
}

void RobCore::step() {
  wait_ = WaitKind::None;
  for (;;) {
    if (!budgetReached_ && instrsRetired_ >= p_.maxInstrs) {
      budgetReached_ = true;
      budgetTick_ = std::max(dispatchClock_, eq_.now());
      if (onDone_) onDone_();
    }
    if (!haveCur_) {
      cur_ = trace_.next();
      gapLeft_ = cur_.gapInstrs;
      haveCur_ = true;
    }
    if (!dispatchCompute()) return;  // suspended on a full window
    if (!dispatchMemOp()) return;    // suspended on window/dependence/MSHRs

    // Bound how far the local clock may lead global simulated time.
    if (dispatchClock_ > eq_.now() + p_.runAheadQuantum) {
      if (!stepScheduled_) {
        stepScheduled_ = true;
        stepAt_ = dispatchClock_;
        stepStamp_ = eq_.scheduleAt(stepAt_, [this] {
          stepScheduled_ = false;
          step();
        });
      }
      return;
    }
  }
}

void RobCore::onStoreDrained() {
  --outstandingStores_;
  if (wait_ == WaitKind::StoreBuffer) {
    wait_ = WaitKind::None;
    step();
  }
}

void RobCore::onMemResponse(int slot, Tick when) {
  auto& s = ring_[static_cast<size_t>(slot)];
  MB_CHECK(s.pending);
  s.pending = false;
  s.completion = when;
  --pendingSlots_;
  --outstandingLoads_;
  if (slot == lastLoadSlot_) {
    lastLoadPending_ = false;
    lastLoadCompletion_ = when;
  }

  const bool resume =
      (wait_ == WaitKind::Mshr) ||
      ((wait_ == WaitKind::RobSlot || wait_ == WaitKind::Dependence) &&
       waitSlot_ == slot);
  if (resume) {
    wait_ = WaitKind::None;
    step();
  }
}

mc::CompletionFn RobCore::makeMemCallback(int tag) {
  if (tag < 0) return [this](Tick) { onStoreDrained(); };
  return [this, tag](Tick when) { onMemResponse(tag, when); };
}

void RobCore::save(ckpt::Writer& w) const {
  w.u64(ring_.size());
  for (const auto& s : ring_) {
    w.i64(s.completion);
    w.b(s.pending);
  }
  w.u64(idx_);
  w.i64(dispatchClock_);
  w.i32(outstandingLoads_);
  w.i32(outstandingStores_);
  w.i32(pendingSlots_);
  w.i32(lastLoadSlot_);
  w.i64(lastLoadCompletion_);
  w.b(lastLoadPending_);
  w.u8(static_cast<std::uint8_t>(wait_));
  w.i32(waitSlot_);
  w.u32(cur_.gapInstrs);
  w.u64(cur_.addr);
  w.b(cur_.write);
  w.b(cur_.dependent);
  w.b(haveCur_);
  w.u32(gapLeft_);
  w.i64(recordsDone_);
  w.i64(instrsRetired_);
  w.b(budgetReached_);
  w.b(stepScheduled_);
  w.i64(stepAt_);
  ckpt::saveStamp(w, stepStamp_);
  w.i64(budgetTick_);
}

void RobCore::load(ckpt::Reader& r) {
  if (r.u64() != ring_.size()) {
    r.fail();
    return;
  }
  for (auto& s : ring_) {
    s.completion = r.i64();
    s.pending = r.b();
  }
  idx_ = r.u64();
  dispatchClock_ = r.i64();
  outstandingLoads_ = r.i32();
  outstandingStores_ = r.i32();
  pendingSlots_ = r.i32();
  lastLoadSlot_ = r.i32();
  lastLoadCompletion_ = r.i64();
  lastLoadPending_ = r.b();
  const std::uint8_t wait = r.u8();
  if (wait > static_cast<std::uint8_t>(WaitKind::StoreBuffer)) {
    r.fail();
    return;
  }
  wait_ = static_cast<WaitKind>(wait);
  waitSlot_ = r.i32();
  cur_.gapInstrs = r.u32();
  cur_.addr = r.u64();
  cur_.write = r.b();
  cur_.dependent = r.b();
  haveCur_ = r.b();
  gapLeft_ = r.u32();
  recordsDone_ = r.i64();
  instrsRetired_ = r.i64();
  budgetReached_ = r.b();
  stepScheduled_ = r.b();
  stepAt_ = r.i64();
  stepStamp_ = ckpt::loadStamp(r);
  budgetTick_ = r.i64();
}

void RobCore::reschedule() {
  if (!stepScheduled_) return;
  eq_.scheduleStamped(stepAt_, stepStamp_, [this] {
    stepScheduled_ = false;
    step();
  });
}

}  // namespace mb::cpu
