#include "sim/sweep.hpp"

#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.hpp"
#include "common/string_util.hpp"

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
    const auto v = parseInt(env, 1, INT_MAX);
    if (!v) {
      std::fprintf(stderr,
                   "mb: unrecognized MB_JOBS value \"%s\" (expected a positive "
                   "integer)\n",
                   env);
      std::exit(2);
    }
    return static_cast<int>(*v);
  }
  return hostCpuCount();
}

int hostCpuCount() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// Host clock for the progress/ETA display on stderr only; it never feeds
// results, reports or scheduling.
using Clock = std::chrono::steady_clock;

double nowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

}  // namespace

SweepEta::SweepEta(std::size_t total, int jobs, bool enabled)
    : total_(total),
      jobs_(jobs),
      enabled_(enabled),
      tty_(isatty(STDERR_FILENO) != 0),
      start_(nowSeconds()) {}

void SweepEta::pointDone(std::size_t index, const std::string& label,
                         const std::string& error) {
  if (!enabled_) return;
  ++done_;
  // Failure lines carry real information every caller needs, so they print
  // even when stderr is not a terminal; the ETA chatter does not, so a CI
  // log is not littered with it.
  if (!error.empty())
    std::fprintf(stderr, "[sweep] point %zu (%s) FAILED: %s\n", index, label.c_str(),
                 error.c_str());
  if (!tty_) return;
  const double now = nowSeconds();
  // One line per second is enough; always print the first and the last
  // point so short sweeps still show something.
  if (done_ != total_ && done_ != 1 && now - lastPrint_ < 1.0) return;
  lastPrint_ = now;
  const double elapsed = now - start_;
  const double eta =
      elapsed / static_cast<double>(done_) * static_cast<double>(total_ - done_);
  std::fprintf(stderr, "[sweep] %zu/%zu points, jobs=%d, elapsed %.1fs, eta %.1fs\n",
               done_, total_, jobs_, elapsed, eta);
}

}  // namespace mb::sim
