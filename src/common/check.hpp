// Lightweight runtime contract checks.
//
// MB_CHECK is always on (simulator correctness beats the last few percent of
// speed; the hot paths have been measured and the checks are branch-predicted
// away). MB_CHECK_MSG carries printf-style context so a failure deep inside a
// long run names the offending values, not just the expression. MB_DCHECK
// compiles out in NDEBUG builds for checks inside the innermost loops.
//
// These macros guard *internal invariants* — conditions that are unreachable
// from any linted configuration. User-facing validation (configs, protocol
// conformance) goes through analysis::Diagnostic instead, which reports
// structured, recoverable findings rather than aborting.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mb {

/// Thrown instead of aborting when a ScopedCheckTrap is active on the current
/// thread. Carries the fully formatted failure text ("check failed: ...").
struct CheckFailure {
  std::string message;
};

namespace detail {

// Per-thread trap flag for ScopedCheckTrap; never crosses threads or
// affects simulated state.
inline thread_local bool g_checkTrapActive = false;

[[noreturn]] inline void raiseCheckFailure(std::string message) {
  if (g_checkTrapActive) throw CheckFailure{std::move(message)};
  std::fprintf(stderr, "%s\n", message.c_str());
  std::abort();
}

[[noreturn]] inline void checkFailed(const char* expr, const char* file, int line) {
  char msg[512];
  std::snprintf(msg, sizeof(msg), "check failed: %s at %s:%d", expr, file, line);
  raiseCheckFailure(msg);
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 4, 5)))
#endif
[[noreturn]] inline void
checkFailedMsg(const char* expr, const char* file, int line, const char* fmt, ...) {
  char msg[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, args);
  va_end(args);
  char full[768];
  std::snprintf(full, sizeof(full), "check failed: %s (%s) at %s:%d", expr, msg, file,
                line);
  raiseCheckFailure(full);
}

}  // namespace detail

/// While alive, MB_CHECK / MB_CHECK_MSG failures on THIS thread throw
/// CheckFailure instead of aborting the process. Used by serve::runPlan to
/// isolate a failing sweep point as a recorded error rather than killing the
/// whole sweep. Nests; restores the previous state on destruction.
class ScopedCheckTrap {
 public:
  ScopedCheckTrap() : prev_(detail::g_checkTrapActive) {
    detail::g_checkTrapActive = true;
  }
  ~ScopedCheckTrap() { detail::g_checkTrapActive = prev_; }
  ScopedCheckTrap(const ScopedCheckTrap&) = delete;
  ScopedCheckTrap& operator=(const ScopedCheckTrap&) = delete;

 private:
  bool prev_;
};

}  // namespace mb

#define MB_CHECK(expr)                                          \
  do {                                                          \
    if (!(expr)) ::mb::detail::checkFailed(#expr, __FILE__, __LINE__); \
  } while (false)

/// MB_CHECK with printf-style context: MB_CHECK_MSG(a < b, "a=%d b=%d", a, b).
#define MB_CHECK_MSG(expr, ...)                                       \
  do {                                                                \
    if (!(expr))                                                      \
      ::mb::detail::checkFailedMsg(#expr, __FILE__, __LINE__, __VA_ARGS__); \
  } while (false)

#ifdef NDEBUG
#define MB_DCHECK(expr) \
  do {                  \
  } while (false)
#else
#define MB_DCHECK(expr) MB_CHECK(expr)
#endif
