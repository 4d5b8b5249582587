#include "cpu/hierarchy.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace mb::cpu {

namespace {

/// The kind byte of every MBCKPT1 transit record. Kinds 0 and 1 were
/// MC-bound admissions, which travel as engine messages now; load()
/// rejects them.
constexpr std::uint8_t kHopKind = 2;

/// How many directory entries load() decodes ahead of the one it inserts,
/// so each entry's slot is prefetched before its insert touches it.
constexpr std::uint64_t kDirLoadWindow = 16;

/// The directory's bound: every line the L2s hold, plus the line
/// onDramData registers before fillLine evicts that cluster's victim.
std::size_t directoryBound(const HierarchyConfig& cfg) {
  return static_cast<std::size_t>(cfg.numClusters()) *
             static_cast<std::size_t>(cfg.l2Bytes / kCacheLineBytes) +
         1;
}

}  // namespace

MemoryHierarchy::MemoryHierarchy(
    const HierarchyConfig& config,
    std::vector<std::unique_ptr<mc::MemoryController>>& controllers,
    EventQueue& eventQueue)
    : cfg_(config),
      mcs_(controllers),
      eq_(eventQueue),
      directory_(directoryBound(config)) {
  MB_CHECK(cfg_.numCores % cfg_.coresPerCluster == 0);
  MB_CHECK(!mcs_.empty());
  l1s_.reserve(static_cast<size_t>(cfg_.numCores));
  for (int c = 0; c < cfg_.numCores; ++c)
    l1s_.push_back(std::make_unique<Cache>(cfg_.l1Bytes, cfg_.l1Assoc));
  l2s_.reserve(static_cast<size_t>(cfg_.numClusters()));
  for (int c = 0; c < cfg_.numClusters(); ++c)
    l2s_.push_back(std::make_unique<Cache>(cfg_.l2Bytes, cfg_.l2Assoc));
  prefetchTables_.resize(static_cast<size_t>(cfg_.numCores));
  for (auto& t : prefetchTables_)
    t.resize(static_cast<size_t>(cfg_.prefetchStreams));
}

void MemoryHierarchy::issuePrefetch(CoreId core, std::uint64_t lineAddr, Tick at) {
  const int cluster = clusterOf(core);
  if (l2s_[static_cast<size_t>(cluster)]->peek(lineAddr) != nullptr) return;
  const auto key = pendingKey(cluster, lineAddr);
  if (pending_.count(key) != 0) return;
  // Lines cached anywhere else would need coherence actions a speculative
  // prefetch should not trigger.
  if (directory_.contains(lineAddr)) return;
  PendingFill fill;
  fill.prefetch = true;
  pending_.emplace(key, std::move(fill));
  ++stats_.prefetchIssued;
  requestDramRead(lineAddr, core, at);
}

void MemoryHierarchy::trainPrefetcher(CoreId core, std::uint64_t lineAddr, Tick at) {
  if (!cfg_.enablePrefetch) return;
  auto& table = prefetchTables_[static_cast<size_t>(core)];
  const auto line = static_cast<std::int64_t>(lineAddr / 64);

  StreamEntry* best = nullptr;
  for (auto& e : table) {
    if (!e.valid) continue;
    const std::int64_t diff = line - static_cast<std::int64_t>(e.lastLine);
    if (diff == 0) return;  // same line re-missed (MSHR merge handles it)
    if (std::abs(diff) > cfg_.prefetchMaxStrideLines) continue;
    if (best == nullptr ||
        std::abs(diff) < std::abs(line - static_cast<std::int64_t>(best->lastLine))) {
      best = &e;
    }
  }
  if (best == nullptr) {
    // Allocate the LRU entry as a fresh stream.
    StreamEntry* victim = &table[0];
    for (auto& e : table) {
      if (!e.valid) {
        victim = &e;
        break;
      }
      if (e.lastUse < victim->lastUse) victim = &e;
    }
    *victim = StreamEntry{static_cast<std::uint64_t>(line), 0, 0, ++prefetchClock_, true};
    return;
  }
  const std::int64_t stride = line - static_cast<std::int64_t>(best->lastLine);
  if (stride == best->stride) {
    ++best->confidence;
  } else {
    best->stride = stride;
    best->confidence = 1;
  }
  best->lastLine = static_cast<std::uint64_t>(line);
  best->lastUse = ++prefetchClock_;
  if (best->confidence >= 2 && best->stride != 0) {
    for (int k = 1; k <= cfg_.prefetchDegree; ++k) {
      const std::int64_t target = line + best->stride * k;
      if (target < 0) break;
      issuePrefetch(core, static_cast<std::uint64_t>(target) * 64, at);
    }
  }
}

int MemoryHierarchy::hops(int clusterA, int clusterB) const {
  // Clusters laid out on a square-ish mesh (4x4 for the 16-cluster system).
  int dim = 1;
  while (dim * dim < cfg_.numClusters()) ++dim;
  const int ax = clusterA % dim, ay = clusterA / dim;
  const int bx = clusterB % dim, by = clusterB / dim;
  return std::abs(ax - bx) + std::abs(ay - by);
}

Tick MemoryHierarchy::nocLatency(int clusterA, int clusterB) const {
  return cycles(hops(clusterA, clusterB) * cfg_.nocPerHopCycles);
}

int MemoryHierarchy::homeCluster(std::uint64_t lineAddr) const {
  // The directory lives with the memory controller that owns the address.
  const int ch = mcs_.front()->addressMap().decompose(lineAddr).channel;
  return ch % cfg_.numClusters();
}

void MemoryHierarchy::postDramWrite(std::uint64_t lineAddr, CoreId core, Tick at) {
  ++stats_.dramWrites;
  if (functional_) return;  // warmup: writebacks are counted, not modelled
  postMiss(lineAddr, core, std::max(at, eq_.now()), /*isWrite=*/true);
}

mc::CompletionFn MemoryHierarchy::makeReadCompletion(std::uint64_t lineAddr,
                                                     CoreId core) {
  const int cluster = clusterOf(core);
  return [this, lineAddr, cluster](Tick dataTick) {
    // Response link hop (zero for parallel interfaces).
    if (cfg_.memLinkLatency > 0) {
      trackTransit(dataTick + cfg_.memLinkLatency, lineAddr, cluster);
    } else {
      onDramData(lineAddr, cluster, dataTick);
    }
  };
}

bool MemoryHierarchy::awaitsFill(std::uint64_t lineAddr, CoreId core) const {
  return core >= 0 && core < cfg_.numCores &&
         pending_.find(pendingKey(clusterOf(core), lineAddr)) != pending_.end();
}

void MemoryHierarchy::requestDramRead(std::uint64_t lineAddr, CoreId core, Tick at) {
  ++stats_.dramReads;
  if (functional_) {
    // Warmup: the line appears instantly; cache/directory state evolves
    // exactly as in a timed run but independent of every memory-side knob.
    onDramData(lineAddr, clusterOf(core), std::max(at, eq_.now()));
    return;
  }
  postMiss(lineAddr, core, std::max(at, eq_.now()) + cfg_.memLinkLatency,
           /*isWrite=*/false);
}

void MemoryHierarchy::postMiss(std::uint64_t lineAddr, CoreId core, Tick due,
                               bool isWrite) {
  MB_CHECK_MSG(mailbox_ != nullptr,
               "timed DRAM access with no engine mailbox wired "
               "(MemoryHierarchy::setMailbox)");
  // The destination channel is a pure function of the address, so it is
  // known at post time; the stamp minted here fixes the message's merge
  // position on the channel queue.
  const int ch = mcs_.front()->addressMap().decompose(lineAddr).channel;
  MB_CHECK(ch >= 0 && static_cast<size_t>(ch) < mcs_.size());
  mailbox_->postEnqueue(ch, due, eq_.issueStamp(), lineAddr, core, isWrite);
}

void MemoryHierarchy::trackTransit(Tick due, std::uint64_t lineAddr, int cluster) {
  const std::uint64_t token = nextTransitToken_++;
  auto& t = transits_[token];
  t.due = due;
  t.lineAddr = lineAddr;
  t.cluster = cluster;
  t.stamp = eq_.scheduleAt(due, [this, token] { fireTransit(token); });
}

void MemoryHierarchy::fireTransit(std::uint64_t token) {
  auto it = transits_.find(token);
  MB_CHECK(it != transits_.end());
  const Transit t = it->second;
  transits_.erase(it);
  onDramData(t.lineAddr, t.cluster, eq_.now());
}

void MemoryHierarchy::deliverEnqueue(int channel, std::uint64_t lineAddr,
                                     CoreId core, bool isWrite) {
  MB_CHECK(channel >= 0 && static_cast<size_t>(channel) < mcs_.size());
  mc::MemRequest req;
  req.addr = lineAddr;
  req.write = isWrite;
  req.core = core;
  req.thread = core;
  if (!req.write) req.onComplete = makeReadCompletion(lineAddr, core);
  mcs_[static_cast<size_t>(channel)]->enqueue(std::move(req));
}

void MemoryHierarchy::warmAccess(CoreId core, std::uint64_t addr, bool write) {
  MB_CHECK(functional_);
  access(core, addr, write, 0, nullptr);
}

void MemoryHierarchy::invalidateClusterL1s(int cluster, std::uint64_t lineAddr,
                                           bool* anyDirty) {
  for (int c = cluster * cfg_.coresPerCluster; c < (cluster + 1) * cfg_.coresPerCluster;
       ++c) {
    bool dirty = false;
    if (l1s_[static_cast<size_t>(c)]->invalidate(lineAddr, &dirty) && dirty &&
        anyDirty != nullptr) {
      *anyDirty = true;
    }
  }
}

void MemoryHierarchy::evictFromL2(int cluster, std::uint64_t lineAddr, bool dirty,
                                  Tick at) {
  // Inclusive hierarchy: L1 copies must go; a dirty L1 copy makes the
  // writeback dirty even if the L2 line itself was clean.
  bool l1Dirty = false;
  invalidateClusterL1s(cluster, lineAddr, &l1Dirty);
  // Directory bookkeeping.
  if (DirEntry* entry = directory_.find(lineAddr); entry != nullptr) {
    entry->sharers &= ~(1u << cluster);
    if (entry->owner == cluster) entry->owner = -1;
    if (entry->sharers == 0 && entry->owner < 0) directory_.erase(lineAddr);
  }
  if (dirty || l1Dirty) postDramWrite(lineAddr, cluster * cfg_.coresPerCluster, at);
}

void MemoryHierarchy::fillLine(std::uint64_t lineAddr, int cluster, CoreId core,
                               bool write, Tick at) {
  Cache& l2 = *l2s_[static_cast<size_t>(cluster)];
  if (l2.peek(lineAddr) == nullptr) {
    const auto ev = l2.insert(lineAddr, write ? LineState::Modified : LineState::Exclusive);
    if (ev.valid) evictFromL2(cluster, ev.addr, ev.dirty, at);
  } else if (write) {
    l2.lookup(lineAddr)->state = LineState::Modified;
  }
  Cache& l1 = *l1s_[static_cast<size_t>(core)];
  if (l1.peek(lineAddr) == nullptr) {
    const auto ev = l1.insert(lineAddr, write ? LineState::Modified : LineState::Shared);
    if (ev.valid && ev.dirty) {
      // Dirty L1 eviction folds into the (inclusive) L2.
      Cache::Line* line = l2.lookup(ev.addr);
      if (line != nullptr) {
        line->state = LineState::Modified;
      } else {
        postDramWrite(ev.addr, core, at);
      }
    }
  } else if (write) {
    l1.lookup(lineAddr)->state = LineState::Modified;
  }
}

void MemoryHierarchy::onDramData(std::uint64_t lineAddr, int cluster, Tick dataTick) {
  const auto key = pendingKey(cluster, lineAddr);
  auto it = pending_.find(key);
  MB_CHECK(it != pending_.end());
  PendingFill fill = std::move(it->second);
  pending_.erase(it);

  // Directory: this cluster now holds the line.
  auto& entry = directory_[lineAddr];
  entry.sharers |= (1u << cluster);
  if (fill.anyWrite) entry.owner = cluster;

  if (fill.prefetch && fill.waiters.empty()) {
    // Speculative fill: L2 only, marked so a later demand hit is counted.
    Cache& l2 = *l2s_[static_cast<size_t>(cluster)];
    if (l2.peek(lineAddr) == nullptr) {
      const auto ev = l2.insert(lineAddr, LineState::Exclusive, /*prefetched=*/true);
      if (ev.valid) evictFromL2(cluster, ev.addr, ev.dirty, dataTick);
    }
    return;
  }

  const Tick ready = dataTick + cycles(cfg_.fillLatCycles);
  bool filled = false;
  for (auto& w : fill.waiters) {
    if (!filled) {
      fillLine(lineAddr, cluster, w.core, fill.anyWrite, dataTick);
      filled = true;
    } else if (w.write) {
      // Later writer among the waiters: make sure the line is dirty.
      Cache::Line* line = l2s_[static_cast<size_t>(cluster)]->lookup(lineAddr);
      if (line != nullptr) line->state = LineState::Modified;
    }
    if (w.onDone) w.onDone(ready);
  }
}

MemoryHierarchy::AccessResult MemoryHierarchy::access(CoreId core, std::uint64_t addr,
                                                      bool write, Tick at,
                                                      mc::CompletionFn onDone,
                                                      int tag) {
  ++stats_.accesses;
  const std::uint64_t lineAddr = l1s_.front()->lineBase(addr);
  const int cluster = clusterOf(core);
  Cache& l1 = *l1s_[static_cast<size_t>(core)];
  Cache& l2 = *l2s_[static_cast<size_t>(cluster)];
  const Tick l1Lat = cycles(cfg_.l1LatCycles);
  const Tick l2Lat = cycles(cfg_.l1LatCycles + cfg_.l2LatCycles);

  // ---- L1 ----------------------------------------------------------------
  if (Cache::Line* line = l1.lookup(lineAddr); line != nullptr) {
    ++stats_.l1Hits;
    if (!write || line->state == LineState::Modified) {
      return {true, l1Lat};
    }
    // Write to a Shared L1 line: upgrade through L2 (and the directory if
    // the line is shared across clusters).
    Cache::Line* l2line = l2.lookup(lineAddr);
    MB_CHECK(l2line != nullptr);  // inclusive
    Tick lat = l2Lat;
    if (l2line->state == LineState::Shared) {
      ++stats_.upgrades;
      auto& entry = directory_[lineAddr];
      const int home = homeCluster(lineAddr);
      lat += nocLatency(cluster, home) * 2 + cycles(cfg_.dirLatCycles);
      for (int cl = 0; cl < cfg_.numClusters(); ++cl) {
        if (cl == cluster || (entry.sharers & (1u << cl)) == 0) continue;
        ++stats_.invalidations;
        bool dummy = false;
        l2s_[static_cast<size_t>(cl)]->invalidate(lineAddr);
        invalidateClusterL1s(cl, lineAddr, &dummy);
        entry.sharers &= ~(1u << cl);
      }
      entry.owner = cluster;
      entry.sharers = (1u << cluster);
    }
    l2line->state = LineState::Modified;
    line->state = LineState::Modified;
    return {true, lat};
  }

  trainPrefetcher(core, lineAddr, at);

  // ---- Cluster MSHR: join an in-flight fill -------------------------------
  const auto key = pendingKey(cluster, lineAddr);
  if (auto it = pending_.find(key); it != pending_.end()) {
    it->second.anyWrite |= write;
    if (it->second.prefetch) {
      it->second.prefetch = false;  // a demand now rides the prefetch fill
      ++stats_.prefetchUseful;
    }
    if (write && !onDone) {
      it->second.waiters.push_back(Waiter{core, true, nullptr, -1});
      return {true, l1Lat};  // fully posted store (no buffer accounting)
    }
    it->second.waiters.push_back(Waiter{core, write, std::move(onDone), tag});
    return {false, 0};
  }

  // ---- L2 ----------------------------------------------------------------
  if (Cache::Line* l2line = l2.lookup(lineAddr); l2line != nullptr) {
    ++stats_.l2Hits;
    if (l2line->prefetched) {
      l2line->prefetched = false;
      ++stats_.prefetchUseful;
    }
    Tick lat = l2Lat;
    if (write && l2line->state == LineState::Shared) {
      ++stats_.upgrades;
      auto& entry = directory_[lineAddr];
      const int home = homeCluster(lineAddr);
      lat += nocLatency(cluster, home) * 2 + cycles(cfg_.dirLatCycles);
      for (int cl = 0; cl < cfg_.numClusters(); ++cl) {
        if (cl == cluster || (entry.sharers & (1u << cl)) == 0) continue;
        ++stats_.invalidations;
        bool dummy = false;
        l2s_[static_cast<size_t>(cl)]->invalidate(lineAddr);
        invalidateClusterL1s(cl, lineAddr, &dummy);
        entry.sharers &= ~(1u << cl);
      }
      entry.owner = cluster;
      entry.sharers = (1u << cluster);
    }
    if (write) l2line->state = LineState::Modified;
    // Fill L1.
    const auto ev = l1.insert(lineAddr, write ? LineState::Modified : LineState::Shared);
    if (ev.valid && ev.dirty) {
      Cache::Line* victimL2 = l2.lookup(ev.addr);
      if (victimL2 != nullptr) {
        victimL2->state = LineState::Modified;
      } else {
        postDramWrite(ev.addr, core, at);
      }
    }
    return {true, lat};
  }

  // ---- Directory: remote clusters --------------------------------------
  const int home = homeCluster(lineAddr);
  DirEntry* dirEntry = directory_.find(lineAddr);
  if (dirEntry != nullptr && (dirEntry->owner >= 0 || dirEntry->sharers != 0)) {
    DirEntry& entry = *dirEntry;
    Tick lat = l2Lat + nocLatency(cluster, home) + cycles(cfg_.dirLatCycles);

    if (entry.owner >= 0 && entry.owner != cluster) {
      // Cache-to-cache transfer from the modified owner; the dirty data is
      // also written back to memory (MESI M -> S with writeback).
      ++stats_.c2cTransfers;
      const int owner = entry.owner;
      lat += nocLatency(home, owner) + cycles(cfg_.l2LatCycles) +
             nocLatency(owner, cluster);
      bool dummy = false;
      if (write) {
        ++stats_.invalidations;
        l2s_[static_cast<size_t>(owner)]->invalidate(lineAddr);
        invalidateClusterL1s(owner, lineAddr, &dummy);
        entry.sharers &= ~(1u << owner);
        entry.owner = cluster;
      } else {
        l2s_[static_cast<size_t>(owner)]->downgrade(lineAddr);
        invalidateClusterL1s(owner, lineAddr, &dummy);  // simple: drop L1 copies
        entry.owner = -1;
      }
      postDramWrite(lineAddr, core, at);  // writeback of the dirty data
      entry.sharers |= (1u << cluster);
      if (l2.peek(lineAddr) == nullptr) {
        const auto ev =
            l2.insert(lineAddr, write ? LineState::Modified : LineState::Shared);
        if (ev.valid) evictFromL2(cluster, ev.addr, ev.dirty, at);
      }
      const auto ev = l1.insert(lineAddr, write ? LineState::Modified : LineState::Shared);
      if (ev.valid && ev.dirty) {
        Cache::Line* victimL2 = l2.lookup(ev.addr);
        if (victimL2 != nullptr) victimL2->state = LineState::Modified;
        else postDramWrite(ev.addr, core, at);
      }
      return {true, lat};
    }

    if (entry.sharers != 0) {
      // Served from a sharer's cache; no DRAM access needed.
      ++stats_.c2cTransfers;
      int sharer = -1;
      for (int cl = 0; cl < cfg_.numClusters(); ++cl) {
        if (cl != cluster && (entry.sharers & (1u << cl)) != 0) {
          sharer = cl;
          break;
        }
      }
      if (sharer >= 0) {
        lat += nocLatency(home, sharer) + cycles(cfg_.l2LatCycles) +
               nocLatency(sharer, cluster);
        if (!write) {
          // The line is no longer exclusive anywhere: E -> S in the sharer.
          l2s_[static_cast<size_t>(sharer)]->downgrade(lineAddr);
        }
      }
      if (write) {
        for (int cl = 0; cl < cfg_.numClusters(); ++cl) {
          if (cl == cluster || (entry.sharers & (1u << cl)) == 0) continue;
          ++stats_.invalidations;
          bool dummy = false;
          l2s_[static_cast<size_t>(cl)]->invalidate(lineAddr);
          invalidateClusterL1s(cl, lineAddr, &dummy);
          entry.sharers &= ~(1u << cl);
        }
        entry.owner = cluster;
      }
      entry.sharers |= (1u << cluster);
      if (l2.peek(lineAddr) == nullptr) {
        const auto ev =
            l2.insert(lineAddr, write ? LineState::Modified : LineState::Shared);
        if (ev.valid) evictFromL2(cluster, ev.addr, ev.dirty, at);
      }
      const auto ev = l1.insert(lineAddr, write ? LineState::Modified : LineState::Shared);
      if (ev.valid && ev.dirty) {
        Cache::Line* victimL2 = l2.lookup(ev.addr);
        if (victimL2 != nullptr) victimL2->state = LineState::Modified;
        else postDramWrite(ev.addr, core, at);
      }
      return {true, lat};
    }
  }

  // ---- DRAM ---------------------------------------------------------------
  PendingFill fill;
  fill.anyWrite = write;
  if (write && !onDone) {
    fill.waiters.push_back(Waiter{core, true, nullptr, -1});
    pending_.emplace(key, std::move(fill));
    requestDramRead(lineAddr, core, at);  // fetch-for-ownership
    return {true, l1Lat};                 // fully posted store
  }
  fill.waiters.push_back(Waiter{core, write, std::move(onDone), tag});
  pending_.emplace(key, std::move(fill));
  requestDramRead(lineAddr, core, at);
  return {false, 0};
}

void MemoryHierarchy::save(ckpt::Writer& w) const {
  w.u64(l1s_.size());
  for (const auto& c : l1s_) c->save(w);
  w.u64(l2s_.size());
  for (const auto& c : l2s_) c->save(w);

  ckpt::saveMapSorted(w, directory_, [&](const DirEntry& e) {
    w.u32(e.sharers);
    w.i32(e.owner);
  });
  ckpt::saveMapSorted(w, pending_, [&](const PendingFill& f) {
    w.b(f.anyWrite);
    w.b(f.prefetch);
    w.u64(f.waiters.size());
    for (const auto& wt : f.waiters) {
      w.i32(wt.core);
      w.b(wt.write);
      w.i32(wt.tag);
      w.b(static_cast<bool>(wt.onDone));
    }
  });

  w.u64(prefetchTables_.size());
  for (const auto& table : prefetchTables_) {
    w.u64(table.size());
    for (const auto& e : table) {
      w.u64(e.lastLine);
      w.i64(e.stride);
      w.i32(e.confidence);
      w.u64(e.lastUse);
      w.b(e.valid);
    }
  }
  w.u64(prefetchClock_);

  w.u64(transits_.size());
  for (const auto& [token, t] : transits_) {
    w.u64(token);
    w.u8(kHopKind);
    ckpt::saveStamp(w, t.stamp);
    w.i64(t.due);
    w.u64(t.lineAddr);
    w.i32(t.cluster);
  }
  w.u64(nextTransitToken_);

  w.i64(stats_.accesses);
  w.i64(stats_.l1Hits);
  w.i64(stats_.l2Hits);
  w.i64(stats_.dramReads);
  w.i64(stats_.dramWrites);
  w.i64(stats_.c2cTransfers);
  w.i64(stats_.invalidations);
  w.i64(stats_.upgrades);
  w.i64(stats_.prefetchIssued);
  w.i64(stats_.prefetchUseful);
}

void MemoryHierarchy::load(ckpt::Reader& r) {
  if (r.u64() != l1s_.size()) {
    r.fail();
    return;
  }
  for (auto& c : l1s_) c->load(r);
  if (r.u64() != l2s_.size()) {
    r.fail();
    return;
  }
  for (auto& c : l2s_) c->load(r);

  // Keys must be line-aligned (so none is the table's empty marker) and
  // strictly ascending (save writes them sorted, so a repeat is tampering),
  // and no more than the table's bound: past it, an insert fails its
  // MB_CHECK, and a full table would make a probe loop forever.
  directory_.clear();
  const std::uint64_t nDir = r.count(16);
  if (nDir > directory_.bound()) {
    r.fail();
    return;
  }
  // Key order scatters over the table, so each entry's slot is prefetched
  // kDirLoadWindow entries before its insert.
  std::array<CoherenceDirectory::Slot, kDirLoadWindow> window{};
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < nDir && r.ok(); ++i) {
    const auto key = static_cast<std::uint64_t>(r.i64());
    DirEntry e;
    e.sharers = r.u32();
    e.owner = r.i32();
    if (l1s_.front()->lineBase(key) != key || (i > 0 && key <= prev)) {
      r.fail();
      return;
    }
    prev = key;
    auto& slot = window[i % kDirLoadWindow];
    if (i >= kDirLoadWindow) directory_[slot.line] = slot.entry;
    slot = {key, e};
    directory_.prefetch(key);
  }
  if (!r.ok()) return;
  for (std::uint64_t i = nDir > kDirLoadWindow ? nDir - kDirLoadWindow : 0; i < nDir; ++i)
    directory_[window[i % kDirLoadWindow].line] = window[i % kDirLoadWindow].entry;
  pending_.clear();
  const std::uint64_t nPend = r.count(18);
  for (std::uint64_t i = 0; i < nPend && r.ok(); ++i) {
    const auto key = static_cast<std::uint64_t>(r.i64());
    PendingFill f;
    f.anyWrite = r.b();
    f.prefetch = r.b();
    const std::uint64_t nWait = r.count(10);
    for (std::uint64_t j = 0; j < nWait && r.ok(); ++j) {
      Waiter wt;
      wt.core = r.i32();
      wt.write = r.b();
      wt.tag = r.i32();
      const bool hasCb = r.b();
      if (hasCb) {
        if (!waiterResolver) {
          r.fail();
          return;
        }
        wt.onDone = waiterResolver(wt.core, wt.tag);
      }
      f.waiters.push_back(std::move(wt));
    }
    pending_.emplace(key, std::move(f));
  }

  if (r.u64() != prefetchTables_.size()) {
    r.fail();
    return;
  }
  for (auto& table : prefetchTables_) {
    if (r.u64() != table.size()) {
      r.fail();
      return;
    }
    for (auto& e : table) {
      e.lastLine = r.u64();
      e.stride = r.i64();
      e.confidence = r.i32();
      e.lastUse = r.u64();
      e.valid = r.b();
    }
  }
  prefetchClock_ = r.u64();

  transits_.clear();
  const std::uint64_t nTransit = r.count(37);
  for (std::uint64_t i = 0; i < nTransit && r.ok(); ++i) {
    const std::uint64_t token = r.u64();
    if (r.u8() != kHopKind) {
      r.fail();
      return;
    }
    Transit t;
    t.stamp = ckpt::loadStamp(r);
    t.due = r.i64();
    t.lineAddr = r.u64();
    t.cluster = r.i32();
    // A hop carries read data to a cluster of this run whose fill waits.
    if (t.cluster < 0 || t.cluster >= cfg_.numClusters() ||
        pending_.find(pendingKey(t.cluster, t.lineAddr)) == pending_.end()) {
      r.fail();
      return;
    }
    transits_.emplace(token, t);
  }
  nextTransitToken_ = r.u64();

  stats_.accesses = r.i64();
  stats_.l1Hits = r.i64();
  stats_.l2Hits = r.i64();
  stats_.dramReads = r.i64();
  stats_.dramWrites = r.i64();
  stats_.c2cTransfers = r.i64();
  stats_.invalidations = r.i64();
  stats_.upgrades = r.i64();
  stats_.prefetchIssued = r.i64();
  stats_.prefetchUseful = r.i64();
}

void MemoryHierarchy::reschedule() {
  for (const auto& [token, t] : transits_)
    eq_.scheduleStamped(t.due, t.stamp, [this, tok = token] { fireTransit(tok); });
}

}  // namespace mb::cpu
