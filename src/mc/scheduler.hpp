// Memory-access schedulers.
//
// The controller evaluates, for every queued request, the next DRAM command
// it needs and that command's earliest legal issue tick, then asks the
// scheduler to order the candidates. Three policies are provided:
//   - FCFS:    strictly oldest first.
//   - FR-FCFS: column-ready (row hit) first, then oldest (Rixner et al.).
//   - PAR-BS:  parallelism-aware batch scheduling (Mutlu & Moscibroda, the
//     paper's default, §VI-A): form a batch by marking up to `markingCap`
//     oldest requests per thread; marked requests beat unmarked; within the
//     marked set, threads are ranked shortest-job-first (fewest marked
//     requests); row hits break remaining ties, then age.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "mc/request.hpp"

namespace mb::mc {

enum class SchedulerKind { Fcfs, FrFcfs, ParBs };

std::string schedulerKindName(SchedulerKind kind);

/// Per-request information the controller hands to the scheduler.
struct Candidate {
  int queueIndex = -1;
  std::uint64_t id = 0;
  ThreadId thread = 0;
  Tick arrival = 0;
  Tick earliestIssue = 0;  // earliest tick the next command may issue
  bool rowHit = false;     // next command is a CAS to an already-open row
  bool marked = false;     // filled by PAR-BS batching
  // Shortest-job-first thread rank (marked requests outstanding for the
  // candidate's thread), stamped by PAR-BS batch upkeep alongside `marked`
  // so the selection scan compares plain fields instead of re-searching the
  // per-thread map for every candidate pair. Constant during one scan: the
  // map only changes at batch formation and dequeue.
  int rank = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Choose among candidates whose earliestIssue <= now. Returns the index
  /// into `cands` of the winner, or -1 if no candidate is issuable at `now`.
  virtual int pick(std::vector<Candidate>& cands, Tick now) = 0;

  /// Both halves of the controller's priority gate from one scan:
  /// `issuable` is pick(cands, now); `overall` is the favourite ignoring
  /// issue readiness, i.e. pick(cands, kTickNever / 2) — the horizon the
  /// gate has always used as "infinitely far in the future". The base
  /// implementation literally makes those two calls (it doubles as the
  /// reference for the fused overrides in scheduler_test.cpp); concrete
  /// schedulers override with a single fused scan that is guaranteed to
  /// return identical indices, because both scans walk the candidates in
  /// the same order with the same strict-preference predicate.
  struct PickPair {
    int issuable = -1;
    int overall = -1;
  };
  virtual PickPair pickPair(std::vector<Candidate>& cands, Tick now) {
    PickPair p;
    p.issuable = pick(cands, now);
    p.overall = pick(cands, kTickNever / 2);
    return p;
  }

  /// Notify batching state: request entered / left the queue.
  virtual void onEnqueue(const MemRequest&) {}
  virtual void onDequeue(const MemRequest&) {}

  /// True when the request belongs to the scheduler's current priority
  /// batch (PAR-BS marking); the controller's anti-row-steal guard lets a
  /// marked request precharge over unmarked older row users.
  virtual bool requestMarked(std::uint64_t) const { return false; }

  /// Batch upkeep for an arbitration pass that skips the pick because
  /// nothing can issue (the command bus is busy): (re)form the priority
  /// batch exactly as the next pick()/pickPair() would. Batch membership
  /// depends on the queue contents at formation time, so a skipped pick
  /// must not defer it.
  virtual void formBatchIfDrained() {}

  virtual SchedulerKind kind() const = 0;
  std::string name() const { return schedulerKindName(kind()); }

  /// Serializable protocol. FCFS / FR-FCFS are stateless; PAR-BS carries
  /// its batch state across a checkpoint.
  virtual void save(ckpt::Writer&) const {}
  virtual void load(ckpt::Reader&) {}
};

std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind);

class FcfsScheduler final : public Scheduler {
 public:
  int pick(std::vector<Candidate>& cands, Tick now) override;
  PickPair pickPair(std::vector<Candidate>& cands, Tick now) override;
  SchedulerKind kind() const override { return SchedulerKind::Fcfs; }
};

class FrFcfsScheduler final : public Scheduler {
 public:
  int pick(std::vector<Candidate>& cands, Tick now) override;
  PickPair pickPair(std::vector<Candidate>& cands, Tick now) override;
  SchedulerKind kind() const override { return SchedulerKind::FrFcfs; }
};

class ParBsScheduler final : public Scheduler {
 public:
  explicit ParBsScheduler(int markingCap = 5) : markingCap_(markingCap) {}

  int pick(std::vector<Candidate>& cands, Tick now) override;
  PickPair pickPair(std::vector<Candidate>& cands, Tick now) override;
  void onEnqueue(const MemRequest& req) override;
  void onDequeue(const MemRequest& req) override;
  SchedulerKind kind() const override { return SchedulerKind::ParBs; }

  /// Requests marked in the current batch, keyed by request id.
  bool isMarked(std::uint64_t requestId) const {
    return marked_.count(requestId) != 0;
  }
  bool requestMarked(std::uint64_t requestId) const override {
    return isMarked(requestId);
  }
  void formBatchIfDrained() override;

  void save(ckpt::Writer& w) const override;
  void load(ckpt::Reader& r) override;

 private:
  void formBatch();
  /// Batch upkeep shared by pick()/pickPair(): formBatchIfDrained(), then
  /// stamp each candidate's `marked` flag and rank.
  void prepareBatch(std::vector<Candidate>& cands);

  int markingCap_;
  // Sorted flat maps (not hash maps): batch state is consulted during
  // scheduling decisions, so its walk order must be deterministic for the
  // sharded-simulation merge to stay reproducible (ShardDifferentialGrid).
  FlatMap<std::uint64_t, ThreadId> marked_;
  FlatMap<ThreadId, int> markedPerThread_;
  // Controller-visible ids/threads/arrivals of everything in the queue, so
  // batch formation can mark the oldest per thread.
  struct QueueEntry {
    std::uint64_t id;
    ThreadId thread;
    Tick arrival;
  };
  std::vector<QueueEntry> queueView_;
};

}  // namespace mb::mc
