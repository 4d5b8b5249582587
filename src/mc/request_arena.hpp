// Slot-pool arena for in-flight controller requests.
//
// The controller used to heap-allocate one Pending per enqueue
// (std::make_unique into unique_ptr queues); at steady state that is one
// malloc/free pair per serviced request. The arena keeps Pending records in
// a contiguous slot vector with an intrusive free list — the same discipline
// as the completion slot pool — so steady-state request traffic touches the
// allocator only while the pool is still growing to the high-water mark.
//
// Handles are generation-tagged: freeing a slot bumps its generation, so a
// stale handle (a queue entry that outlived its request — a bookkeeping bug)
// fails the MB_CHECK in deref instead of silently aliasing the slot's next
// occupant. Queues store 8-byte handles, which also makes the erase-compact
// path a memmove of integers instead of unique_ptr shuffling.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace mb::mc {

/// Generation-tagged reference to a pooled request slot.
struct ReqHandle {
  std::uint32_t idx = 0;
  std::uint32_t gen = 0;

  bool operator==(const ReqHandle&) const = default;
};

template <typename T>
class RequestArena {
 public:
  ReqHandle alloc(T&& value) {
    std::uint32_t idx;
    if (freeHead_ != kNone) {
      idx = freeHead_;
      Slot& s = slots_[idx];
      freeHead_ = s.nextFree;
      s.live = true;
      s.value = std::move(value);
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      auto& s = slots_.emplace_back();
      s.value = std::move(value);
      s.live = true;
    }
    ++liveCount_;
    return ReqHandle{idx, slots_[idx].gen};
  }

  /// Release a slot. The handle (and any copies of it) become stale: the
  /// generation bump makes every later deref through them fail loudly.
  void free(ReqHandle h) {
    Slot& s = deref(h);
    s.live = false;
    ++s.gen;
    s.value = T{};  // drop captured resources (e.g. the completion callback)
    s.nextFree = freeHead_;
    freeHead_ = h.idx;
    --liveCount_;
  }

  T& get(ReqHandle h) { return deref(h).value; }
  const T& get(ReqHandle h) const {
    return const_cast<RequestArena*>(this)->deref(h).value;
  }

  /// Unchecked deref for the owner's hot loops, where the handle was read
  /// out of an owning queue in the same pass (live by construction: a queue
  /// entry is erased in the same step that frees its slot). Everything
  /// handle-shaped that crossed an event boundary goes through get().
  T& ref(ReqHandle h) {
    MB_DCHECK(h.idx < slots_.size() && slots_[h.idx].live &&
              slots_[h.idx].gen == h.gen);
    return slots_[h.idx].value;
  }
  const T& ref(ReqHandle h) const {
    return const_cast<RequestArena*>(this)->ref(h);
  }

  std::size_t liveCount() const { return liveCount_; }
  /// Total slots ever created (high-water mark of concurrent requests).
  std::size_t capacity() const { return slots_.size(); }

  /// Drop every slot (checkpoint load rebuilds the pool from scratch).
  void clear() {
    slots_.clear();
    freeHead_ = kNone;
    liveCount_ = 0;
  }

 private:
  struct Slot {
    T value{};
    std::uint32_t gen = 0;
    std::uint32_t nextFree = kNone;
    bool live = false;
  };

  Slot& deref(ReqHandle h) {
    MB_CHECK_MSG(h.idx < slots_.size() && slots_[h.idx].live &&
                     slots_[h.idx].gen == h.gen,
                 "stale or invalid request-arena handle (idx=%u gen=%u)",
                 static_cast<unsigned>(h.idx), static_cast<unsigned>(h.gen));
    return slots_[h.idx];
  }

  static constexpr std::uint32_t kNone = 0xffffffffU;

  std::vector<Slot> slots_;
  std::uint32_t freeHead_ = kNone;
  std::size_t liveCount_ = 0;
};

}  // namespace mb::mc
