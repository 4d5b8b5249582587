#include "mc/scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mb::mc {

std::string schedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Fcfs: return "FCFS";
    case SchedulerKind::FrFcfs: return "FR-FCFS";
    case SchedulerKind::ParBs: return "PAR-BS";
  }
  return "unknown";
}

std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Fcfs: return std::make_unique<FcfsScheduler>();
    case SchedulerKind::FrFcfs: return std::make_unique<FrFcfsScheduler>();
    case SchedulerKind::ParBs: return std::make_unique<ParBsScheduler>();
  }
  MB_CHECK(false && "unknown scheduler kind");
  return nullptr;
}

namespace {

// One forward scan computing the best candidate under `better` for a single
// earliestIssue filter. `better(c, b)` must be a strict "c beats the current
// best b" predicate; ties keep the earlier index, exactly as the historical
// per-scheduler loops did.
template <typename Better>
int scanBest(const std::vector<Candidate>& cands, Tick now, Better better) {
  int best = -1;
  for (size_t i = 0; i < cands.size(); ++i) {
    const auto& c = cands[i];
    if (c.earliestIssue > now) continue;
    if (best < 0 || better(c, cands[static_cast<size_t>(best)]))
      best = static_cast<int>(i);
  }
  return best;
}

// Fused variant of the controller's double pick: one scan maintaining both
// the issuable best (earliestIssue <= now) and the overall best under the
// gate horizon. Since both running bests use the same predicate and see the
// candidates in the same order, the result is index-identical to two
// independent scanBest calls.
template <typename Better>
Scheduler::PickPair scanPair(const std::vector<Candidate>& cands, Tick now,
                             Better better) {
  Scheduler::PickPair p;
  constexpr Tick kHorizon = kTickNever / 2;
  const Candidate* bestOverall = nullptr;
  const Candidate* bestIssuable = nullptr;
  for (size_t i = 0; i < cands.size(); ++i) {
    const auto& c = cands[i];
    if (c.earliestIssue > kHorizon) continue;
    if (bestOverall == nullptr || better(c, *bestOverall)) {
      bestOverall = &c;
      p.overall = static_cast<int>(i);
    }
    if (c.earliestIssue > now) continue;
    if (bestIssuable == nullptr || better(c, *bestIssuable)) {
      bestIssuable = &c;
      p.issuable = static_cast<int>(i);
    }
  }
  return p;
}

bool fcfsBetter(const Candidate& c, const Candidate& b) {
  return c.arrival < b.arrival;
}

bool frFcfsBetter(const Candidate& c, const Candidate& b) {
  return c.rowHit != b.rowHit ? c.rowHit : c.arrival < b.arrival;
}

}  // namespace

int FcfsScheduler::pick(std::vector<Candidate>& cands, Tick now) {
  return scanBest(cands, now, fcfsBetter);
}

Scheduler::PickPair FcfsScheduler::pickPair(std::vector<Candidate>& cands, Tick now) {
  return scanPair(cands, now, fcfsBetter);
}

int FrFcfsScheduler::pick(std::vector<Candidate>& cands, Tick now) {
  return scanBest(cands, now, frFcfsBetter);
}

Scheduler::PickPair FrFcfsScheduler::pickPair(std::vector<Candidate>& cands, Tick now) {
  return scanPair(cands, now, frFcfsBetter);
}

void ParBsScheduler::onEnqueue(const MemRequest& req) {
  queueView_.push_back(QueueEntry{req.id, req.thread, req.arrival});
}

void ParBsScheduler::onDequeue(const MemRequest& req) {
  for (size_t i = 0; i < queueView_.size(); ++i) {
    if (queueView_[i].id == req.id) {
      queueView_.erase(queueView_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  auto it = marked_.find(req.id);
  if (it != marked_.end()) {
    auto cnt = markedPerThread_.find(it->second);
    if (cnt != markedPerThread_.end() && --cnt->second <= 0) markedPerThread_.erase(cnt);
    marked_.erase(it);
  }
}

void ParBsScheduler::formBatch() {
  MB_DCHECK(marked_.empty());
  markedPerThread_.clear();
  // Oldest-first marking with a per-thread cap.
  std::vector<const QueueEntry*> sorted;
  sorted.reserve(queueView_.size());
  for (const auto& e : queueView_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const QueueEntry* a, const QueueEntry* b) {
    if (a->arrival != b->arrival) return a->arrival < b->arrival;
    return a->id < b->id;
  });
  for (const QueueEntry* e : sorted) {
    auto& perThread = markedPerThread_[e->thread];
    if (perThread >= markingCap_) continue;
    ++perThread;
    marked_.emplace(e->id, e->thread);
  }
}

void ParBsScheduler::formBatchIfDrained() {
  if (marked_.empty() && !queueView_.empty()) formBatch();
}

void ParBsScheduler::prepareBatch(std::vector<Candidate>& cands) {
  formBatchIfDrained();
  for (auto& c : cands) {
    c.marked = marked_.count(c.id) != 0;
    if (c.marked) {
      // Thread rank: shortest job (fewest marked requests) first. Stamped
      // here once per candidate; the selection predicate below only ever
      // compares ranks between two marked candidates, and the map is
      // constant between here and the scan.
      const auto it = markedPerThread_.find(c.thread);
      c.rank = it == markedPerThread_.end() ? 0 : it->second;
    } else {
      c.rank = 0;
    }
  }
}

namespace {
bool parBsBetter(const Candidate& c, const Candidate& b) {
  if (c.marked != b.marked) return c.marked;
  if (c.rowHit != b.rowHit) return c.rowHit;
  // Both marked or both unmarked here; ranks are meaningful (and compared)
  // only in the both-marked case. Lower rank is better.
  if (c.marked && c.rank != b.rank) return c.rank < b.rank;
  return c.arrival < b.arrival;
}
}  // namespace

int ParBsScheduler::pick(std::vector<Candidate>& cands, Tick now) {
  prepareBatch(cands);
  return scanBest(cands, now, parBsBetter);
}

Scheduler::PickPair ParBsScheduler::pickPair(std::vector<Candidate>& cands, Tick now) {
  prepareBatch(cands);
  return scanPair(cands, now, parBsBetter);
}


// ---- Serializable protocol -----------------------------------------------
//
// queueView_ order is controller-enqueue order and must survive verbatim
// (formBatch walks it to mark the oldest per thread); the marked maps are
// lookup-only during picks, so they travel sorted by key.

void ParBsScheduler::save(ckpt::Writer& w) const {
  ckpt::saveMapSorted(w, marked_,
                      [&](ThreadId t) { w.i32(t); });
  ckpt::saveMapSorted(w, markedPerThread_,
                      [&](int n) { w.i32(n); });
  w.u64(queueView_.size());
  for (const auto& qe : queueView_) {
    w.u64(qe.id);
    w.i32(qe.thread);
    w.i64(qe.arrival);
  }
}

void ParBsScheduler::load(ckpt::Reader& r) {
  marked_.clear();
  const std::uint64_t nMarked = r.count(12);
  for (std::uint64_t i = 0; i < nMarked && r.ok(); ++i) {
    const std::uint64_t id = static_cast<std::uint64_t>(r.i64());
    marked_.emplace(id, r.i32());
  }
  markedPerThread_.clear();
  const std::uint64_t nThreads = r.count(12);
  for (std::uint64_t i = 0; i < nThreads && r.ok(); ++i) {
    const ThreadId t = static_cast<ThreadId>(r.i64());
    markedPerThread_.emplace(t, r.i32());
  }
  queueView_.clear();
  const std::uint64_t nQueue = r.count(20);
  for (std::uint64_t i = 0; i < nQueue && r.ok(); ++i) {
    QueueEntry qe;
    qe.id = r.u64();
    qe.thread = r.i32();
    qe.arrival = r.i64();
    queueView_.push_back(qe);
  }
}

}  // namespace mb::mc
