#include "mc/scheduler.hpp"

#include <algorithm>
#include <utility>

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

Scheduler::Scheduler(SchedulerKind kind, int markingCap)
    : kind_(kind), markingCap_(markingCap) {
  // A rank is at most the cap, and the key holds ranks below 64.
  MB_CHECK(markingCap >= 1 && markingCap < 64);
}

std::uint64_t Scheduler::key(int viewPos, bool rowHit, Tick arrival) const {
  switch (kind_) {
    case SchedulerKind::Fcfs: return key<SchedulerKind::Fcfs>(viewPos, rowHit, arrival);
    case SchedulerKind::FrFcfs:
      return key<SchedulerKind::FrFcfs>(viewPos, rowHit, arrival);
    case SchedulerKind::ParBs: return key<SchedulerKind::ParBs>(viewPos, rowHit, arrival);
  }
  return BestPair<int>::kNoKey;
}

Scheduler::PickPair Scheduler::pick(const std::vector<Candidate>& cands, Tick now) const {
  BestPair<int> best;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Candidate& c = cands[i];
    best.offer(static_cast<int>(i), key(c.viewPos, c.rowHit, c.arrival), c.earliestIssue,
               now);
  }
  return {best.hasIssuable() ? best.issuable : -1, best.hasOverall() ? best.overall : -1};
}

namespace {

// The policies as strict "c beats the current best b" predicates.
bool fcfsBetter(const Candidate& c, const Candidate& b) { return c.arrival < b.arrival; }

bool frFcfsBetter(const Candidate& c, const Candidate& b) {
  return c.rowHit != b.rowHit ? c.rowHit : c.arrival < b.arrival;
}

bool parBsBetter(const Candidate& c, const Candidate& b) {
  if (c.marked != b.marked) return c.marked;
  if (c.rowHit != b.rowHit) return c.rowHit;
  // Ranks are compared only between two marked candidates; lower is better.
  if (c.marked && c.rank != b.rank) return c.rank < b.rank;
  return c.arrival < b.arrival;
}

// One forward scan keeping the issuable best and the overall best under
// `better`; ties keep the earlier index.
template <typename Better>
Scheduler::PickPair scanPair(const std::vector<Candidate>& cands, Tick now,
                             Better better) {
  const auto at = [&](int j) -> const Candidate& {
    return cands[static_cast<std::size_t>(j)];
  };
  Scheduler::PickPair p;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const Candidate& c = cands[i];
    if (c.earliestIssue > kGateHorizon) continue;
    if (p.overall < 0 || better(c, at(p.overall))) p.overall = static_cast<int>(i);
    if (c.earliestIssue > now) continue;
    if (p.issuable < 0 || better(c, at(p.issuable))) p.issuable = static_cast<int>(i);
  }
  return p;
}

}  // namespace

Scheduler::PickPair Scheduler::referencePick(std::vector<Candidate>& cands,
                                             Tick now) const {
  switch (kind_) {
    case SchedulerKind::Fcfs: return scanPair(cands, now, fcfsBetter);
    case SchedulerKind::FrFcfs: return scanPair(cands, now, frFcfsBetter);
    case SchedulerKind::ParBs: break;
  }
  for (Candidate& c : cands) {
    c.marked = isMarked(c.id);
    c.rank = c.marked ? markedPerThread_[static_cast<std::size_t>(c.thread)] : 0;
  }
  return scanPair(cands, now, parBsBetter);
}

void Scheduler::onEnqueue(const MemRequest& req) {
  if (kind_ != SchedulerKind::ParBs) return;
  MB_CHECK_MSG(req.thread >= 0 && req.thread < kMaxThreads,
               "PAR-BS thread id %d outside [0, %d)", req.thread, kMaxThreads);
  const auto t = static_cast<std::size_t>(req.thread);
  if (t >= markedPerThread_.size()) markedPerThread_.resize(t + 1, 0);
  view_.push_back(QueueEntry{req.id, req.thread, false, req.arrival});
}

void Scheduler::onDequeue(std::size_t pos, [[maybe_unused]] std::uint64_t id) {
  if (kind_ != SchedulerKind::ParBs) return;
  const QueueEntry& e = view_[pos];
  MB_DCHECK(e.id == id);
  if (e.marked) {
    --markedPerThread_[static_cast<std::size_t>(e.thread)];
    --marked_;
  }
  view_.erase(view_.begin() + static_cast<std::ptrdiff_t>(pos));
}

bool Scheduler::isMarked(std::uint64_t requestId) const {
  for (const QueueEntry& e : view_)
    if (e.id == requestId) return e.marked;
  return false;
}

void Scheduler::formBatch() {
  // Oldest-first marking with a per-thread cap. The counts are all zero:
  // they equal the marks, and none is left.
  std::vector<std::size_t> order(view_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const QueueEntry& x = view_[a];
    const QueueEntry& y = view_[b];
    return x.arrival != y.arrival ? x.arrival < y.arrival : x.id < y.id;
  });
  for (const std::size_t i : order) {
    QueueEntry& e = view_[i];
    int& perThread = markedPerThread_[static_cast<std::size_t>(e.thread)];
    if (perThread >= markingCap_) continue;
    ++perThread;
    ++marked_;
    e.marked = true;
  }
}

bool Scheduler::formBatchIfDrained() {
  if (marked_ != 0 || view_.empty()) return false;
  formBatch();
  return true;
}

// ---- Serializable protocol -----------------------------------------------
//
// The layout of the id-keyed maps this state replaced: the marked
// (id, thread) pairs sorted by id, then the (thread, count) pair of every
// thread with a mark sorted by thread, then the view in window order.

std::vector<std::pair<std::uint64_t, ThreadId>> Scheduler::markList() const {
  std::vector<std::pair<std::uint64_t, ThreadId>> marks;
  marks.reserve(static_cast<std::size_t>(marked_));
  for (const QueueEntry& e : view_)
    if (e.marked) marks.emplace_back(e.id, e.thread);
  std::sort(marks.begin(), marks.end());
  return marks;
}

std::vector<std::pair<std::int64_t, int>> Scheduler::countList() const {
  std::vector<std::pair<std::int64_t, int>> counts;
  for (std::size_t t = 0; t < markedPerThread_.size(); ++t) {
    if (markedPerThread_[t] > 0)
      counts.emplace_back(static_cast<std::int64_t>(t), markedPerThread_[t]);
  }
  return counts;
}

void Scheduler::save(ckpt::Writer& w) const {
  if (kind_ != SchedulerKind::ParBs) return;
  const auto marks = markList();
  w.u64(marks.size());
  for (const auto& [id, thread] : marks) {
    w.i64(static_cast<std::int64_t>(id));
    w.i32(thread);
  }
  const auto counts = countList();
  w.u64(counts.size());
  for (const auto& [thread, n] : counts) {
    w.i64(thread);
    w.i32(n);
  }
  w.u64(view_.size());
  for (const QueueEntry& e : view_) {
    w.u64(e.id);
    w.i32(e.thread);
    w.i64(e.arrival);
  }
}

void Scheduler::load(ckpt::Reader& r) {
  view_.clear();
  markedPerThread_.clear();
  marked_ = 0;
  if (kind_ != SchedulerKind::ParBs) return;
  std::vector<std::pair<std::uint64_t, ThreadId>> marks;
  for (std::uint64_t n = r.count(12); n > 0 && r.ok(); --n) {
    const auto id = static_cast<std::uint64_t>(r.i64());
    marks.emplace_back(id, r.i32());
  }
  std::vector<std::pair<std::int64_t, int>> counts;
  for (std::uint64_t n = r.count(12); n > 0 && r.ok(); --n) {
    const std::int64_t thread = r.i64();
    counts.emplace_back(thread, r.i32());
  }
  for (std::uint64_t n = r.count(20); n > 0 && r.ok(); --n) {
    QueueEntry e{};
    e.id = r.u64();
    e.thread = r.i32();
    e.arrival = r.i64();
    // A thread indexes the dense counts, and an arrival must fit the key.
    if (e.thread < 0 || e.thread >= kMaxThreads || e.arrival < 0 ||
        e.arrival > kMaxArrival)
      r.fail();
    view_.push_back(e);
  }
  // Mark the view from the saved marks (searched, so sorted first). The
  // state holds together only if that gives back both saved lists: every
  // mark names a view entry of its thread, and every count is its thread's
  // marks, within the cap.
  if (!std::is_sorted(marks.begin(), marks.end())) r.fail();
  for (QueueEntry& e : view_) {
    if (!r.ok()) break;
    const auto t = static_cast<std::size_t>(e.thread);
    if (t >= markedPerThread_.size()) markedPerThread_.resize(t + 1, 0);
    e.marked =
        std::binary_search(marks.begin(), marks.end(), std::make_pair(e.id, e.thread));
    if (!e.marked) continue;
    ++markedPerThread_[t];
    ++marked_;
  }
  const bool overCap = std::any_of(markedPerThread_.begin(), markedPerThread_.end(),
                                   [&](int n) { return n > markingCap_; });
  if (!r.ok() || overCap || markList() != marks || countList() != counts) {
    r.fail();
    view_.clear();
    markedPerThread_.clear();
    marked_ = 0;
  }
}

}  // namespace mb::mc
