// A flat open-addressing table from line-aligned u64 keys to values: the
// storage of the coherence directory (cpu/directory.hpp) and of the MSHR
// file (cpu/mshr.hpp).
//
// Shape: linear probing; a slot is picked by multiply-high of a Fibonacci
// hash, so the capacity need not be a power of two. Erase shifts the rest
// of the probe chain back (no tombstones), so a lookup stops at the first
// empty slot. Keys are line-aligned (a line address, or one with a cluster
// number in its top bits): kEmpty is odd and can never be one.
//
// The table never grows by itself. Its owner keeps the load at or below
// 3/4, so a probe for an absent key always ends at an empty slot: the
// directory is sized once for a hard bound, and the MSHR file rehashes
// into twice its capacity when an insert would pass that load.
//
// Iteration walks occupied slots in slot (hash) order. Its one caller is
// ckpt::saveMapSorted, which sorts by key, so the snapshot bytes never see
// the table's layout.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace mb::cpu {

template <typename V>
class LineTable {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    V value{};
  };

  // The subset of a map's interface ckpt::saveMapSorted reads.
  using key_type = std::uint64_t;
  using mapped_type = V;

  explicit LineTable(std::size_t capacity) : slots_(capacity) { MB_CHECK(capacity > 0); }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// The value for `key`, or nullptr.
  V* find(std::uint64_t key) {
    Slot& s = slots_[probe(key)];
    return s.key == kEmpty ? nullptr : &s.value;
  }
  bool contains(std::uint64_t key) const { return slots_[probe(key)].key != kEmpty; }

  /// The slot holding `key`, or the empty slot an insert of `key` fills
  /// (through claim).
  Slot& slotFor(std::uint64_t key) {
    MB_DCHECK(key != kEmpty);
    return slots_[probe(key)];
  }
  /// Put `key`, with a value-initialized value, into `s`: the empty slot
  /// slotFor(key) returned, with no insert or erase since.
  V& claim(Slot& s, std::uint64_t key) {
    MB_DCHECK(s.key == kEmpty);
    s = Slot{key, V{}};
    ++size_;
    return s.value;
  }

  /// Remove `key`'s entry if present. The entries behind it in its probe
  /// chain move back into the hole unless their home slot lies cyclically
  /// in (hole, slot], where a lookup still reaches them.
  void erase(std::uint64_t key) {
    std::size_t hole = probe(key);
    if (slots_[hole].key == kEmpty) return;
    for (std::size_t s = next(hole); slots_[s].key != kEmpty; s = next(s)) {
      const std::size_t h = home(slots_[s].key);
      const bool reachable = hole < s ? (hole < h && h <= s) : (hole < h || h <= s);
      if (reachable) continue;
      slots_[hole] = slots_[s];
      hole = s;
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Move every entry into a table of `capacity` slots.
  void rehash(std::size_t capacity) {
    MB_CHECK(capacity > size_);
    std::vector<Slot> old(capacity);
    slots_.swap(old);
    for (const Slot& s : old)
      if (s.key != kEmpty) slots_[probe(s.key)] = s;
  }

  /// Hint that `key` is about to be inserted or looked up.
  void prefetch(std::uint64_t key) const { __builtin_prefetch(&slots_[home(key)]); }

  /// Occupied slots in slot order; each decomposes as [key, value].
  class const_iterator {
   public:
    const_iterator(const Slot* p, const Slot* end) : p_(p), end_(end) { skip(); }
    const Slot& operator*() const { return *p_; }
    const_iterator& operator++() {
      ++p_;
      skip();
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return p_ != o.p_; }

   private:
    void skip() {
      while (p_ != end_ && p_->key == kEmpty) ++p_;
    }
    const Slot* p_;
    const Slot* end_;
  };
  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

  /// The slot a probe for `key` starts at: the high half of the hash
  /// times the capacity.
  std::size_t home(std::uint64_t key) const {
    const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(h) * slots_.size()) >> 64);
  }

 private:
  std::size_t next(std::size_t s) const { return s + 1 == slots_.size() ? 0 : s + 1; }
  /// The slot holding `key`, or the empty slot that ends its probe chain.
  std::size_t probe(std::uint64_t key) const {
    std::size_t s = home(key);
    while (slots_[s].key != key && slots_[s].key != kEmpty) s = next(s);
    return s;
  }

  std::size_t size_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace mb::cpu
