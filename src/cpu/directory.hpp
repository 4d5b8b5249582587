// Coherence directory storage: a LineTable (cpu/line_table.hpp) of 16-byte
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
// The probe, the backward-shift erase, the home slot and the slot-order
// iteration are LineTable's, shared with the MSHR file (cpu/mshr.hpp),
// which rehashes instead; this class adds only the bound and its check.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.hpp"
#include "cpu/line_table.hpp"

namespace mb::cpu {

struct DirectoryEntry {
  std::uint32_t sharers = 0;  // bitset over clusters
  std::int32_t owner = -1;    // cluster holding the line Modified
};

class CoherenceDirectory : private LineTable<DirectoryEntry> {
  using Table = LineTable<DirectoryEntry>;

 public:
  using Entry = DirectoryEntry;
  using Table::const_iterator;
  using Table::key_type;
  using Table::mapped_type;
  using Table::Slot;
  static_assert(sizeof(Slot) == 16);

  /// Room for `bound` entries at no more than 3/4 load.
  explicit CoherenceDirectory(std::size_t bound)
      : Table(bound + (bound + 2) / 3), bound_(bound) {
    MB_CHECK(bound > 0);
  }

  std::size_t bound() const { return bound_; }
  using Table::begin;
  using Table::capacity;
  using Table::clear;
  using Table::contains;
  using Table::end;
  using Table::erase;
  using Table::find;
  using Table::home;
  using Table::prefetch;
  using Table::size;

  /// The entry for `line`, inserted as {no sharers, no owner} if absent.
  Entry& operator[](std::uint64_t line) {
    Slot& s = slotFor(line);
    if (s.key != kEmpty) return s.value;
    MB_CHECK_MSG(size() < bound_, "coherence directory past its bound of %zu lines",
                 bound_);
    return claim(s, line);
  }

 private:
  std::size_t bound_;
};

}  // namespace mb::cpu
