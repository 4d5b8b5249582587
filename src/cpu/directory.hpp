// Coherence directory storage: a flat open-addressing table of 16-byte
// slots (line address, sharers, owner), allocated once for its bound.
//
// MemoryHierarchy keeps one directory entry per line that some cluster's L2
// holds (plus, for a moment, the line onDramData registers before fillLine
// evicts that cluster's victim), so the entry count has a hard bound fixed
// by the geometry. The table is sized for that bound at construction, with
// capacity ceil(4/3 x bound) so the load factor never passes 3/4, and never
// rehashes: an insert past the bound is an MB_CHECK failure, because it
// means the hierarchy broke the invariant the bound stands on. One
// allocation also means no per-line nodes to build on restore or to free on
// teardown.
//
// Shape: linear probing; a slot is picked by multiply-high of a Fibonacci
// hash, so the capacity need not be a power of two. Erase shifts the rest
// of the probe chain back (no tombstones), so a lookup stops at the first
// empty slot. Keys are line addresses, hence line-aligned: kEmpty is odd
// and can never be one.
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

class CoherenceDirectory {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Entry {
    std::uint32_t sharers = 0;  // bitset over clusters
    std::int32_t owner = -1;    // cluster holding the line Modified
  };
  struct Slot {
    std::uint64_t line = kEmpty;
    Entry entry;
  };
  static_assert(sizeof(Slot) == 16);

  // The subset of a map's interface ckpt::saveMapSorted reads.
  using key_type = std::uint64_t;
  using mapped_type = Entry;

  /// Room for `bound` entries at no more than 3/4 load.
  explicit CoherenceDirectory(std::size_t bound)
      : bound_(bound), slots_(bound + (bound + 2) / 3) {
    MB_CHECK(bound > 0);
  }

  std::size_t size() const { return size_; }
  std::size_t bound() const { return bound_; }
  std::size_t capacity() const { return slots_.size(); }

  /// The entry for `line`, or nullptr.
  Entry* find(std::uint64_t line) {
    const std::size_t s = probe(line);
    return slots_[s].line == kEmpty ? nullptr : &slots_[s].entry;
  }
  bool contains(std::uint64_t line) const { return slots_[probe(line)].line != kEmpty; }

  /// The entry for `line`, inserted as {no sharers, no owner} if absent.
  Entry& operator[](std::uint64_t line) {
    MB_DCHECK(line != kEmpty);
    const std::size_t s = probe(line);
    if (slots_[s].line == kEmpty) {
      MB_CHECK_MSG(size_ < bound_, "coherence directory past its bound of %zu lines",
                   bound_);
      ++size_;
      slots_[s] = Slot{line, Entry{}};
    }
    return slots_[s].entry;
  }

  /// Remove `line`'s entry if present. The entries behind it in its probe
  /// chain move back into the hole unless their home slot lies cyclically
  /// in (hole, slot], where a lookup still reaches them.
  void erase(std::uint64_t line) {
    std::size_t hole = probe(line);
    if (slots_[hole].line == kEmpty) return;
    for (std::size_t s = next(hole); slots_[s].line != kEmpty; s = next(s)) {
      const std::size_t h = home(slots_[s].line);
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

  /// Hint that `line` is about to be inserted or looked up.
  void prefetch(std::uint64_t line) const { __builtin_prefetch(&slots_[home(line)]); }

  /// Occupied slots in slot order; each decomposes as [line, entry].
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
      while (p_ != end_ && p_->line == kEmpty) ++p_;
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

  /// The slot a probe for `line` starts at: the high half of the hash
  /// times the capacity.
  std::size_t home(std::uint64_t line) const {
    const std::uint64_t h = line * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(h) * slots_.size()) >> 64);
  }

 private:
  std::size_t next(std::size_t s) const { return s + 1 == slots_.size() ? 0 : s + 1; }
  /// The slot holding `line`, or the empty slot that ends its probe chain.
  std::size_t probe(std::uint64_t line) const {
    std::size_t s = home(line);
    while (slots_[s].line != line && slots_[s].line != kEmpty) s = next(s);
    return s;
  }

  std::size_t bound_;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace mb::cpu
