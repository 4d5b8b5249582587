// The hierarchy's MSHR file: the DRAM fills in flight, keyed by (cluster,
// line), each with the accesses that wait for its data in arrival order.
//
// The fills live in a LineTable (cpu/line_table.hpp), so a miss, a merge
// and a fill each cost one probe. Nothing bounds the count, since
// prefetches are not capped: the table doubles its capacity when an insert
// would pass 3/4 load and never shrinks during a run. 64-core TPC-H holds
// about a hundred fills, so the table settles at 256 slots.
//
// A fill is plain data; its waiters are a FIFO of index-linked nodes in one
// pool shared by every fill, whose freed nodes go on a free list. A miss
// once the pool has grown allocates nothing. Serving a fill takes each
// waiter out of the pool before running its callback, which may re-enter
// the hierarchy, miss, and grow the pool: no reference into the pool
// survives a callback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "cpu/line_table.hpp"
#include "mc/request.hpp"

namespace mb::cpu {

struct Waiter {
  CoreId core = 0;
  bool write = false;
  mc::CompletionFn onDone;
  int tag = -1;  // consumer id for checkpoint restore (see MemoryHierarchy::access)
};

struct PendingFill {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::uint32_t head = kNone;  // pool node of the first waiter
  std::uint32_t tail = kNone;  // pool node of the last waiter
  std::uint32_t count = 0;     // waiters
  bool anyWrite = false;
  bool prefetch = false;  // no waiters; fills the L2 only
};

class MshrFile {
 public:
  using Fills = LineTable<PendingFill>;

  MshrFile() : fills_(kInitialSlots) {}

  PendingFill* find(std::uint64_t key) { return fills_.find(key); }
  bool contains(std::uint64_t key) const { return fills_.contains(key); }
  /// A fill for `key`, which must not be pending, with no waiters. The
  /// reference lasts until the next insert or erase.
  PendingFill& insert(std::uint64_t key) {
    if (4 * (fills_.size() + 1) > 3 * fills_.capacity()) fills_.rehash(2 * fills_.capacity());
    return fills_.claim(fills_.slotFor(key), key);
  }
  void erase(std::uint64_t key) { fills_.erase(key); }

  /// Append `w` to `fill`'s waiters.
  void push(PendingFill& fill, Waiter w) {
    std::uint32_t n = free_;
    if (n != PendingFill::kNone) {
      free_ = pool_[n].next;
      pool_[n] = Node{std::move(w), PendingFill::kNone};
    } else {
      n = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{std::move(w), PendingFill::kNone});
    }
    if (fill.count++ == 0) {
      fill.head = n;
    } else {
      pool_[fill.tail].next = n;
    }
    fill.tail = n;
  }

  /// Take the waiter at node `n` out of the pool and step `n` to the next
  /// waiter of its fill. The node is free again when this returns.
  Waiter take(std::uint32_t& n) {
    Node& node = pool_[n];
    Waiter w = std::move(node.waiter);
    const std::uint32_t next = node.next;
    node.next = free_;
    free_ = n;
    n = next;
    return w;
  }

  /// Call `f` on each of `fill`'s waiters in arrival order.
  template <typename F>
  void forEachWaiter(const PendingFill& fill, F&& f) const {
    for (std::uint32_t n = fill.head; n != PendingFill::kNone; n = pool_[n].next)
      f(pool_[n].waiter);
  }

  void clear() {
    fills_.clear();
    pool_.clear();
    free_ = PendingFill::kNone;
  }

  const Fills& fills() const { return fills_; }

 private:
  static constexpr std::size_t kInitialSlots = 64;
  struct Node {
    Waiter waiter;
    std::uint32_t next = PendingFill::kNone;
  };

  Fills fills_;
  std::vector<Node> pool_;
  std::uint32_t free_ = PendingFill::kNone;
};

}  // namespace mb::cpu
