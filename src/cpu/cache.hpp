// Set-associative cache with MESI line states and true-LRU replacement.
//
// Used for both the per-core L1 data caches (16 KB, 4-way) and the
// per-cluster shared L2 caches (2 MB, 16-way) of §VI-A. The cache is a pure
// state container: lookup/insert/invalidate mutate tag state and report
// evictions; all timing lives in the hierarchy that owns the caches.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace mb::cpu {

enum class LineState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

class Cache {
 public:
  Cache(std::int64_t sizeBytes, int associativity, int lineBytes = kCacheLineBytes);

  /// 24 bytes: the 64-core L2 arrays are 12 MiB of these.
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lruStamp = 0;
    LineState state = LineState::Invalid;
    bool prefetched = false;  // brought in by the prefetcher, not yet used
  };
  static_assert(sizeof(Line) == 24);

  /// Find the line holding `addr`; nullptr on miss. Touches LRU on hit.
  Line* lookup(std::uint64_t addr);
  const Line* peek(std::uint64_t addr) const;

  struct Eviction {
    bool valid = false;       // an existing line was displaced
    std::uint64_t addr = 0;   // base address of the displaced line
    bool dirty = false;       // displaced line was Modified
  };

  /// Install `addr` with `state`; returns what was displaced (if anything).
  /// The caller must have established that `addr` is not present.
  Eviction insert(std::uint64_t addr, LineState state, bool prefetched = false);

  /// Drop the line if present; returns true and reports dirtiness.
  bool invalidate(std::uint64_t addr, bool* wasDirty = nullptr);
  /// Downgrade Modified/Exclusive to Shared; returns true if it was dirty.
  bool downgrade(std::uint64_t addr);

  std::int64_t sizeBytes() const { return sizeBytes_; }
  int associativity() const { return assoc_; }
  int numSets() const { return numSets_; }
  std::uint64_t lineBase(std::uint64_t addr) const {
    return addr & ~static_cast<std::uint64_t>(lineBytes_ - 1);
  }
  /// Count of non-invalid lines (for tests).
  std::int64_t validLineCount() const;

  /// Serializable protocol: tag/state/LRU for every way (geometry is a
  /// construction parameter; a line-count mismatch fails the reader).
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  std::uint64_t tagOf(std::uint64_t addr) const { return addr >> (setBits_ + lineBits_); }
  std::uint64_t setOf(std::uint64_t addr) const {
    return (addr >> lineBits_) & (static_cast<std::uint64_t>(numSets_) - 1);
  }
  std::uint64_t rebuildAddr(std::uint64_t tag, std::uint64_t set) const {
    return (tag << (setBits_ + lineBits_)) | (set << lineBits_);
  }

  std::int64_t sizeBytes_;
  int assoc_;
  int lineBytes_;
  int numSets_;
  int lineBits_;
  int setBits_;
  std::uint64_t lruCounter_ = 0;
  std::vector<Line> lines_;  // numSets_ * assoc_, set-major
};

}  // namespace mb::cpu
