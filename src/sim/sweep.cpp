#include "sim/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace mb::sim {

std::uint64_t foldPointSeed(std::uint64_t baseSeed, std::size_t index) {
  // Fold the index into the stream position, not the seed value, so nearby
  // indices land far apart in SplitMix64's output sequence regardless of the
  // base seed's entropy.
  SplitMix64 sm(baseSeed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1)));
  return sm.next();
}

int resolveJobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("MB_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1) {
      std::fprintf(stderr,
                   "mb: unrecognized MB_JOBS value \"%s\" (expected a positive "
                   "integer)\n",
                   env);
      std::exit(2);
    }
    return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// MB_DET_ALLOW(MB-DET-003, "progress/ETA display on stderr only; never feeds results, reports, or scheduling")
using Clock = std::chrono::steady_clock;

/// Throttled completed/total + ETA line on stderr. Thread-safe. The ETA
/// chatter is a human affordance, so it only prints when stderr is a
/// terminal — machine consumers get SweepOptions::onProgress instead, and a
/// CI log is not littered with interleaved ETA lines. Failure lines print
/// regardless: they carry real information every caller needs.
class ProgressReporter {
 public:
  ProgressReporter(std::size_t total, int jobs, bool enabled)
      : total_(total),
        jobs_(jobs),
        enabled_(enabled),
        tty_(isatty(STDERR_FILENO) != 0),
        start_(Clock::now()) {}

  void pointDone(const SweepOutcome& outcome) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    if (!outcome.ok && !outcome.canceled) printError(outcome);
    if (!tty_) return;
    const auto now = Clock::now();
    const double elapsed = std::chrono::duration<double>(now - start_).count();
    // One line per second is enough; always print the first and the last
    // point so short sweeps still show something.
    if (done_ != total_ && done_ != 1 &&
        std::chrono::duration<double>(now - lastPrint_).count() < 1.0) {
      return;
    }
    lastPrint_ = now;
    const double eta =
        done_ == 0 ? 0.0 : elapsed / static_cast<double>(done_) *
                               static_cast<double>(total_ - done_);
    std::fprintf(stderr, "[sweep] %zu/%zu points, jobs=%d, elapsed %.1fs, eta %.1fs\n",
                 done_, total_, jobs_, elapsed, eta);
  }

 private:
  static void printError(const SweepOutcome& o) {
    std::fprintf(stderr, "[sweep] point %zu (%s) FAILED: %s\n", o.index,
                 o.label.c_str(), o.error.c_str());
  }

  std::size_t total_;
  int jobs_;
  bool enabled_;
  bool tty_;
  Clock::time_point start_;
  std::mutex mu_;
  std::size_t done_ = 0;
  Clock::time_point lastPrint_{};
};

SweepOutcome runPoint(const SweepPoint& point, std::size_t index) {
  SweepOutcome out;
  out.index = index;
  out.label = point.label;
  // Trap MB_CHECK failures on this thread for the duration of the run: a
  // point that trips an internal invariant becomes a recorded error, not a
  // process abort, and the other points still produce results.
  const ScopedCheckTrap trap;
  try {
    out.result = runSimulation(point.cfg, point.workload, point.opts);
    out.ok = true;
  } catch (const CheckFailure& f) {
    out.error = f.message;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace

std::vector<SweepOutcome> SweepRunner::run(const std::vector<SweepPoint>& points) const {
  const int jobs = resolveJobs(opts_.jobs);
  std::vector<SweepOutcome> outcomes(points.size());
  ProgressReporter progress(points.size(), jobs, opts_.progress);

  // Serializes SweepOptions::onPointDone and onProgress (cache stores,
  // response streams) across workers; also guards the progress counters.
  std::mutex doneMu;
  std::size_t doneCount = 0;
  std::size_t failedCount = 0;
  auto notifyDone = [&](const SweepOutcome& o) {
    if (!opts_.onPointDone && !opts_.onProgress) return;
    const std::lock_guard<std::mutex> lock(doneMu);
    if (opts_.onPointDone) opts_.onPointDone(o);
    if (opts_.onProgress) {
      ++doneCount;
      if (!o.ok) ++failedCount;
      SweepProgress p;
      p.done = doneCount;
      p.total = points.size();
      p.failed = failedCount;
      p.index = o.index;
      p.ok = o.ok;
      opts_.onProgress(p);
    }
  };

  const std::atomic<bool>* cancel = opts_.cancel;
  auto runOrCancel = [&](std::size_t i) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      SweepOutcome o;
      o.index = i;
      o.label = points[i].label;
      o.ok = false;
      o.canceled = true;
      o.error = "sweep point canceled before it started";
      return o;
    }
    return runPoint(points[i], i);
  };

  if (jobs == 1 || points.size() <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      outcomes[i] = runOrCancel(i);
      progress.pointDone(outcomes[i]);
      notifyDone(outcomes[i]);
    }
    return outcomes;
  }

  // Bounded pool: min(jobs, points) workers pull indices from a shared
  // counter. Each outcome slot is written by exactly one worker, so the
  // vector needs no lock; the atomic counter is the only shared state.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= points.size()) return;
      outcomes[i] = runOrCancel(i);
      progress.pointDone(outcomes[i]);
      notifyDone(outcomes[i]);
    }
  };
  const std::size_t numWorkers =
      std::min(static_cast<std::size_t>(jobs), points.size());
  std::vector<std::thread> workers;
  workers.reserve(numWorkers);
  for (std::size_t w = 0; w < numWorkers; ++w) workers.emplace_back(worker);
  for (auto& t : workers) t.join();
  return outcomes;
}

std::vector<RunResult> SweepRunner::runAll(const std::vector<SweepPoint>& points) const {
  const auto outcomes = run(points);
  std::size_t failed = 0;
  for (const auto& o : outcomes) {
    if (o.ok) continue;
    ++failed;
    std::fprintf(stderr, "sweep point %zu (%s) failed: %s\n", o.index,
                 o.label.c_str(), o.error.c_str());
  }
  MB_CHECK_MSG(failed == 0, "%zu of %zu sweep points failed (see stderr)", failed,
               outcomes.size());
  std::vector<RunResult> results;
  results.reserve(outcomes.size());
  for (auto& o : outcomes) results.push_back(std::move(o.result));
  return results;
}

}  // namespace mb::sim
