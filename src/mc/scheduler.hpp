// Memory-access schedulers.
//
// The controller walks its served queues once per arbitration pass. For
// every request it evaluates the next DRAM command and that command's
// earliest legal issue tick, and asks the scheduler for the request's
// priority as one integer key (lower wins). The walk keeps the running
// issuable best and the overall best under that key (BestPair). Three
// policies are provided:
//   - FCFS:    strictly oldest first. Key: [arrival].
//   - FR-FCFS: column-ready (row hit) first, then oldest (Rixner et al.).
//     Key: [not row hit][arrival].
//   - PAR-BS:  parallelism-aware batch scheduling (Mutlu & Moscibroda, the
//     paper's default, §VI-A): form a batch by marking up to `markingCap`
//     oldest requests per thread; marked requests beat unmarked; row hits
//     break ties next; within the marked set, threads are ranked
//     shortest-job-first (fewest marked requests); then age. Key:
//     [unmarked][not row hit][rank if marked][arrival].
//
// PAR-BS keeps a view of the controller's read window, index-parallel to
// it: entry i is the request at window position i, and carries its mark.
// The controller reports every window entry and exit by position, so the
// key reads a mark and a rank by position, with no search.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/types.hpp"
#include "mc/request.hpp"

namespace mb::mc {

enum class SchedulerKind { Fcfs, FrFcfs, ParBs };

std::string schedulerKindName(SchedulerKind kind);

/// The priority gate's horizon: a request whose next command is not legal
/// before it ("infinitely far in the future") is in neither best.
inline constexpr Tick kGateHorizon = kTickNever / 2;

/// The largest arrival a priority key holds (its low 56 bits): about 20
/// hours of simulated time. The controller checks every request against
/// it where the request enters, at admission and at restore.
inline constexpr Tick kMaxArrival = (Tick{1} << 56) - 1;

/// Thread ids PAR-BS accepts; they index its per-thread marked counts.
/// Threads are core ids, far below this in every configuration.
inline constexpr ThreadId kMaxThreads = 1024;

/// The running bests of one arbitration walk under a scheduler key: lower
/// wins, and a tie keeps the earlier offer. `issuable` is the best among
/// offers legal at `now`; `overall` the best regardless of readiness, up
/// to the gate horizon, with the tick its command becomes legal.
template <typename Ref>
struct BestPair {
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};  // above every key
  Ref issuable{};
  Ref overall{};
  std::uint64_t issuableKey = kNoKey;
  std::uint64_t overallKey = kNoKey;
  Tick overallAt = kTickNever;

  void offer(Ref ref, std::uint64_t key, Tick earliest, Tick now) {
    if (earliest > kGateHorizon) return;
    if (key < overallKey) {
      overallKey = key;
      overall = ref;
      overallAt = earliest;
    }
    if (earliest <= now && key < issuableKey) {
      issuableKey = key;
      issuable = ref;
    }
  }
  bool hasIssuable() const { return issuableKey != kNoKey; }
  bool hasOverall() const { return overallKey != kNoKey; }
};

/// One request as a materialized candidate: the input of the list-based
/// selections (tests, micro-benchmarks and the controller's MB_DCHECK
/// reference), which the controller's walk computes in place.
struct Candidate {
  int viewPos = -1;  // read-window position; -1 for a write
  std::uint64_t id = 0;
  ThreadId thread = 0;
  Tick arrival = 0;
  Tick earliestIssue = 0;  // earliest tick the next command may issue
  bool rowHit = false;     // next command is a CAS to an already-open row
  bool marked = false;     // stamped by referencePick (PAR-BS, by id)
  int rank = 0;            // stamped by referencePick: the thread's marks
};

class Scheduler {
 public:
  /// Positions into a candidate list; -1 when there is none.
  struct PickPair {
    int issuable = -1;
    int overall = -1;
  };

  explicit Scheduler(SchedulerKind kind, int markingCap = 5);

  SchedulerKind kind() const { return kind_; }
  std::string name() const { return schedulerKindName(kind_); }

  /// The priority key of a request: at read-window position `viewPos`
  /// (-1 for a write, which PAR-BS never marks), whose next command is a
  /// row hit or not, that arrived at `arrival` (<= kMaxArrival). `K` must
  /// be kind(); the controller dispatches on the kind once per pass.
  template <SchedulerKind K>
  std::uint64_t key(int viewPos, bool rowHit, Tick arrival) const {
    auto k = static_cast<std::uint64_t>(arrival);
    if constexpr (K != SchedulerKind::Fcfs) {
      if (!rowHit) k |= kNotRowHitBit;
    }
    if constexpr (K == SchedulerKind::ParBs) {
      const QueueEntry* e =
          viewPos >= 0 ? &view_[static_cast<std::size_t>(viewPos)] : nullptr;
      if (e != nullptr && e->marked) {
        const int rank = markedPerThread_[static_cast<std::size_t>(e->thread)];
        k |= static_cast<std::uint64_t>(rank) << kRankShift;
      } else {
        k |= kUnmarkedBit;
      }
    }
    return k;
  }
  /// The same, dispatching on kind() in each call.
  std::uint64_t key(int viewPos, bool rowHit, Tick arrival) const;

  /// Both bests over a candidate list under the key: what one walk yields
  /// (the walk itself dispatches on the kind once, not per request).
  PickPair pick(const std::vector<Candidate>& cands, Tick now) const;
  /// The same two positions from the comparison predicates, with each
  /// candidate's mark and rank stamped by request id: the reference the
  /// key order is checked against.
  PickPair referencePick(std::vector<Candidate>& cands, Tick now) const;

  /// The read window gained a request at its end.
  void onEnqueue(const MemRequest& req);
  /// The read window lost request `id`, at position `pos`.
  void onDequeue(std::size_t pos, std::uint64_t id);
  /// Form a new PAR-BS batch when the last one drained and the window is
  /// not empty; true when one formed. Every full pass runs it before its
  /// walk, and every wake-only pass after its scan.
  bool formBatchIfDrained();
  /// True when the request at read-window position `viewPos` belongs to the
  /// current batch (-1, a write, never does). The controller's
  /// anti-row-steal guard lets a marked request precharge over unmarked
  /// older row users.
  bool markedAt(int viewPos) const {
    return kind_ == SchedulerKind::ParBs && viewPos >= 0 &&
           view_[static_cast<std::size_t>(viewPos)].marked;
  }
  /// The same by request id, with a search (tests and references).
  bool isMarked(std::uint64_t requestId) const;

  /// PAR-BS's view of the read window; empty for the other kinds.
  struct QueueEntry {
    std::uint64_t id;
    ThreadId thread;
    bool marked;
    Tick arrival;
  };
  const std::vector<QueueEntry>& view() const { return view_; }

  /// Serializable protocol. FCFS / FR-FCFS are stateless; PAR-BS carries
  /// its batch state across a checkpoint. load() checks the state against
  /// itself (each mark names a view entry of its thread, counts equal
  /// marks, threads and arrivals in range); the controller checks the view
  /// against its restored read window.
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  static constexpr int kRankShift = 56;
  static constexpr std::uint64_t kNotRowHitBit = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kUnmarkedBit = std::uint64_t{1} << 63;
  void formBatch();
  /// The saved lists: (id, thread) of each mark by id, and (thread, count)
  /// of each thread with marks by thread.
  std::vector<std::pair<std::uint64_t, ThreadId>> markList() const;
  std::vector<std::pair<std::int64_t, int>> countList() const;

  SchedulerKind kind_;
  int markingCap_;
  std::vector<QueueEntry> view_;
  // Marked requests per thread (the PAR-BS rank), indexed by thread id, and
  // their sum; both always equal the marks in view_.
  std::vector<int> markedPerThread_;
  int marked_ = 0;
};

}  // namespace mb::mc
