// Coherent cache hierarchy: per-core L1 data caches, a shared L2 per 4-core
// cluster, and a directory-based MESI protocol across clusters, backed by
// the memory controllers (paper §VI-A: MESI with a reverse directory
// associated with each memory controller).
//
// Modelling level: transaction-atomic coherence. A request's protocol
// actions (directory lookup, invalidations, cache-to-cache transfer) are
// applied to cache/directory state when the request is processed, and their
// cost is folded into the returned latency; only DRAM accesses are
// asynchronous (event-driven through the memory controllers). In-flight
// cross-cluster races are therefore resolved in arrival order — the right
// level of detail for a memory-system study, where coherence exists to
// produce correct DRAM traffic (writebacks, fetch-for-ownership,
// sharer-served reads), not to study the protocol itself.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "ckpt/restore.hpp"
#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "common/shard_mailbox.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "cpu/cache.hpp"
#include "cpu/directory.hpp"
#include "cpu/mshr.hpp"
#include "mc/controller.hpp"

namespace mb::cpu {

struct HierarchyConfig {
  int numCores = 64;
  int coresPerCluster = 4;

  std::int64_t l1Bytes = 16 * kKiB;  // §VI-A
  int l1Assoc = 4;
  std::int64_t l2Bytes = 2 * kMiB;
  int l2Assoc = 16;

  Tick cyclePs = 500;  // 2 GHz core clock
  int l1LatCycles = 2;
  int l2LatCycles = 12;
  int dirLatCycles = 6;
  int nocPerHopCycles = 3;
  int fillLatCycles = 8;  // DRAM data back through L2+L1 to the core

  // L2 stride prefetcher (per core): tracks `prefetchStreams` access
  // streams; after two consistent stride observations it runs
  // `prefetchDegree` lines ahead. Strides beyond `prefetchMaxStrideLines`
  // are treated as stream restarts (page-crossing jumps defeat real
  // prefetchers the same way).
  /// Extra one-way latency on the processor-memory path (serial-link
  /// interfaces like HMC); applied to requests and responses.
  Tick memLinkLatency = 0;

  bool enablePrefetch = true;
  int prefetchDegree = 4;
  int prefetchStreams = 8;
  int prefetchMaxStrideLines = 32;

  int numClusters() const { return numCores / coresPerCluster; }
};

struct HierarchyStats {
  std::int64_t accesses = 0;
  std::int64_t l1Hits = 0;
  std::int64_t l2Hits = 0;
  std::int64_t dramReads = 0;
  std::int64_t dramWrites = 0;   // dirty writebacks posted to the MCs
  std::int64_t c2cTransfers = 0; // served from a remote cluster's cache
  std::int64_t invalidations = 0;
  std::int64_t upgrades = 0;
  std::int64_t prefetchIssued = 0;
  std::int64_t prefetchUseful = 0;  // prefetched lines later hit by demand
};

class MemoryHierarchy {
 public:
  /// `controllers` must outlive the hierarchy; indexed by channel id.
  MemoryHierarchy(const HierarchyConfig& config,
                  std::vector<std::unique_ptr<mc::MemoryController>>& controllers,
                  EventQueue& eventQueue);

  struct AccessResult {
    bool immediate = false;
    Tick latency = 0;  // valid when immediate
  };

  /// Perform a memory access for `core` at (possibly future) tick `at`.
  /// If the access completes without DRAM involvement, returns
  /// {immediate = true, latency}; otherwise `onDone(tick)` fires when the
  /// data reaches the core. `onDone` may be empty for posted stores.
  /// `tag` identifies the waiting consumer for checkpointing (a core's ROB
  /// slot for loads, -1 for store-drain callbacks); it travels with the
  /// waiter so a restored snapshot can rebuild the callback.
  AccessResult access(CoreId core, std::uint64_t addr, bool write, Tick at,
                      mc::CompletionFn onDone, int tag = -1);

  const HierarchyStats& stats() const { return stats_; }
  const HierarchyConfig& config() const { return cfg_; }

  /// Functional-warmup mode: accesses update cache/directory/prefetcher
  /// state synchronously with zero latency and never touch the memory
  /// controllers or the event queue (DRAM reads install instantly, dirty
  /// writebacks are dropped and only counted). Used to warm caches before
  /// measurement; a warmup snapshot taken in this mode is independent of
  /// every memory-side parameter.
  void setFunctionalMode(bool on) { functional_ = on; }
  /// Convenience wrapper for warmup traffic (functional mode must be on).
  void warmAccess(CoreId core, std::uint64_t addr, bool write);
  /// Zero the access counters (after warmup, before measurement).
  void resetStats() { stats_ = HierarchyStats{}; }

  /// The callback a restored MC uses to deliver read data back into the
  /// hierarchy (the same closure requestDramRead would have attached).
  mc::CompletionFn makeReadCompletion(std::uint64_t lineAddr, CoreId core);
  /// Whether `core` is a core of this run and a fill of `lineAddr` for its
  /// cluster is pending. Every DRAM read in flight was issued for one, so a
  /// restore checks each read a snapshot holds against it: data arriving
  /// for no fill would fail an MB_CHECK mid-run.
  bool awaitsFill(std::uint64_t lineAddr, CoreId core) const;

  /// Wire the engine's cross-shard message port. Every DRAM read and
  /// write-back leaves through it (postEnqueue) and reaches its controller
  /// through deliverEnqueue; a timed miss with no mailbox wired is an
  /// MB_CHECK failure. Functional (warm-up) accesses never touch it.
  void setMailbox(ShardMailbox* mailbox) { mailbox_ = mailbox; }

  /// Materialize a buffered CPU -> channel admission on its destination
  /// controller (the channel-side half of a postEnqueue message): the one
  /// place a miss becomes a MemRequest. Runs on the channel's thread; reads
  /// only immutable wiring (config, address map) and the channel's own
  /// controller, so it is safe off the CPU queue.
  void deliverEnqueue(int channel, std::uint64_t lineAddr, CoreId core,
                      bool isWrite);

  /// Rebuilds a waiter's onDone callback on restore from (core, tag); wired
  /// to RobCore::makeMemCallback by the system. Must be set before load()
  /// when the snapshot carries pending fills with callbacks.
  std::function<mc::CompletionFn(CoreId core, int tag)> waiterResolver;

  /// Serializable protocol (caches, directory, pending fills, prefetcher,
  /// in-flight response hops, stats). In-flight admissions are not here:
  /// they are engine messages, saved in its ENG section.
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);
  /// Re-arm in-flight response hops after load().
  void reschedule();

 private:
  using DirEntry = CoherenceDirectory::Entry;
  /// A read response hopping back across a serial memory link (HMC's
  /// memLinkLatency): the one hierarchy<->MC event that runs on this queue,
  /// reified so checkpoints can capture it. The event-queue closure captures
  /// only the token; the payload lives here.
  struct Transit {
    EventStamp stamp;  // event-queue stamp (for restore ordering)
    Tick due = 0;
    std::uint64_t lineAddr = 0;
    int cluster = 0;  // destination cluster
  };

  int clusterOf(CoreId core) const { return core / cfg_.coresPerCluster; }
  Tick cycles(int n) const { return static_cast<Tick>(n) * cfg_.cyclePs; }
  /// Mesh hop count between a cluster and a channel's home cluster.
  int hops(int clusterA, int clusterB) const;
  Tick nocLatency(int clusterA, int clusterB) const;
  int homeCluster(std::uint64_t lineAddr) const;

  void postDramWrite(std::uint64_t lineAddr, CoreId core, Tick at);
  void requestDramRead(std::uint64_t lineAddr, CoreId core, Tick at);
  /// Post a DRAM read or write-back to its channel as an engine message due
  /// at `due`, stamped on this queue (its merge position on the channel).
  void postMiss(std::uint64_t lineAddr, CoreId core, Tick due, bool isWrite);
  /// Register + schedule a response hop (see Transit).
  void trackTransit(Tick due, std::uint64_t lineAddr, int cluster);
  void fireTransit(std::uint64_t token);
  /// Stride detection on the L1-miss stream; may issue prefetch fills.
  void trainPrefetcher(CoreId core, std::uint64_t lineAddr, Tick at);
  void issuePrefetch(CoreId core, std::uint64_t lineAddr, Tick at);
  void onDramData(std::uint64_t lineAddr, int cluster, Tick dataTick);
  /// Install a line into a cluster's L2 + the requesting core's L1,
  /// handling inclusive evictions; returns nothing, posts writebacks.
  void fillLine(std::uint64_t lineAddr, int cluster, CoreId core, bool write, Tick at);
  void evictFromL2(int cluster, std::uint64_t lineAddr, bool dirty, Tick at);
  void invalidateClusterL1s(int cluster, std::uint64_t lineAddr, bool* anyDirty);

  // Not saved: the configuration (the snapshot's configHash checks it) and
  // the wiring. Every controller saves its own MC<i> section, reschedule()
  // re-arms the in-flight response hops, and messages in flight live in the
  // engine's ENG section.
  HierarchyConfig cfg_;
  std::vector<std::unique_ptr<mc::MemoryController>>& mcs_;
  EventQueue& eq_;
  // Cross-shard port, the only way a miss reaches a controller; null until
  // setMailbox.
  ShardMailbox* mailbox_ = nullptr;

  std::vector<std::unique_ptr<Cache>> l1s_;  // per core
  std::vector<std::unique_ptr<Cache>> l2s_;  // per cluster
  // One entry per line resident in some L2, so it is the largest and
  // hottest map in the hierarchy: a flat table sized at construction for
  // every L2 line plus the one onDramData adds before fillLine evicts (see
  // cpu/directory.hpp). An erase shifts later entries back, so no entry
  // reference is held across a call that can evict (evictFromL2). save()
  // writes it through ckpt::saveMapSorted, so the snapshot bytes are
  // key-ordered.
  CoherenceDirectory directory_;
  // Pending DRAM fills keyed by pendingKey(cluster, lineAddr), with their
  // waiters (cpu/mshr.hpp). Every miss and every fill touches it, and
  // 64-core TPC-H holds a mean of 108 fills (139 at most): as a sorted map,
  // its shifting and per-fill waiter vectors took 13 % of the main thread's
  // time. save() writes it through ckpt::saveMapSorted, so the snapshot
  // bytes are key-ordered.
  MshrFile mshr_;

  struct StreamEntry {
    std::uint64_t lastLine = 0;
    std::int64_t stride = 0;
    int confidence = 0;
    std::uint64_t lastUse = 0;
    bool valid = false;
  };
  std::vector<std::vector<StreamEntry>> prefetchTables_;  // per core
  std::uint64_t prefetchClock_ = 0;

  std::map<std::uint64_t, Transit> transits_;  // keyed by token
  std::uint64_t nextTransitToken_ = 0;
  bool functional_ = false;

  HierarchyStats stats_;

  /// A pending fill's key: the cluster in the top bits, over the line.
  static constexpr int kPendingClusterShift = 58;
  std::uint64_t pendingKey(int cluster, std::uint64_t lineAddr) const {
    return (static_cast<std::uint64_t>(cluster) << kPendingClusterShift) ^ lineAddr;
  }
};

}  // namespace mb::cpu
