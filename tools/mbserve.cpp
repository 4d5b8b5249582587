// mbserve — persistent simulation service with memoized results.
//
// Server modes (pick at least one transport):
//   mbserve --socket=PATH [--cache-dir=DIR] [--journal=PATH]
//           [--inflight=N] [--sweep-jobs=N] [--shards=N]
//           [--snapshot-budget-mb=N]
//   mbserve --stdio ...            serve one session over stdin/stdout
//
// Client mode (one-shot):
//   mbserve --client --socket=PATH --spec='{"verb":...}' [--spec=...]
//   mbserve --client --socket=PATH        read request lines from stdin
//
// The client sends each request line, then streams every response event to
// stdout until all requests have reached a terminal event (done / status /
// canceled / flushed / bye / error). Exit 0 when no error events arrived,
// 1 otherwise, 2 on usage or connection failure.
//
// Flags:
//   --socket=PATH           Unix-domain socket to listen on / connect to
//   --stdio                 serve stdin/stdout (EOF drains and exits)
//   --cache-dir=DIR         memoized-result store (default: mbserve-cache)
//   --journal=PATH          accept journal; existing file auto-resumes
//   --inflight=N            concurrent jobs (default 2)
//   --sweep-jobs=N          sweep workers per job (default: share
//                           MB_JOBS / host CPUs across the slots
//                           and the per-simulation shard workers)
//   --shards=N              threads inside each simulation, its own
//                           included (default 1). Results are
//                           byte-identical at any value, so the result
//                           cache ignores this knob
//   --snapshot-budget-mb=N  warmup-snapshot LRU budget (default 256)
//   --version               print tool + format versions
//
// Protocol grammar, event set, and the MB-SRV-* diagnostic registry:
// DESIGN.md §"Serving layer"; a copy-paste session lives in README.md.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/json_mini.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "serve/server.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "mbserve: %s\n(see the header of tools/mbserve.cpp)\n", msg);
  std::exit(2);
}

int parsePositive(const std::string& value, const char* flag) {
  const auto v = parseInt(value, 1, INT_MAX);
  if (!v) usage((std::string(flag) + " needs a positive integer").c_str());
  return static_cast<int>(*v);
}

/// An event line's terminality decides when the one-shot client may exit:
/// every request produces exactly one terminal event (submit → done or
/// error; status/cancel/flush-cache/shutdown → their echo or error).
bool isTerminalEvent(const std::string& line) {
  json::JVal v;
  json::JParser parser(line);
  if (!parser.parse(&v) || v.t != json::JVal::T::Obj) return false;
  const json::JVal* ev = v.get("event");
  if (ev == nullptr || ev->t != json::JVal::T::Str) return false;
  return ev->s == "done" || ev->s == "error" || ev->s == "status" ||
         ev->s == "canceled" || ev->s == "flushed" || ev->s == "bye";
}

int runClient(const std::string& socketPath, const std::vector<std::string>& specs) {
  if (socketPath.empty()) usage("--client needs --socket=PATH");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.size() >= sizeof addr.sun_path) usage("socket path too long");
  std::strncpy(addr.sun_path, socketPath.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    std::fprintf(stderr, "mbserve: cannot connect to %s: %s\n", socketPath.c_str(),
                 std::strerror(errno));
    return 2;
  }

  std::vector<std::string> lines = specs;
  if (lines.empty()) {  // no --spec flags: read request lines from stdin
    std::string line;
    for (int c; (c = std::fgetc(stdin)) != EOF;) {
      if (c == '\n') {
        if (!line.empty()) lines.push_back(line);
        line.clear();
      } else {
        line += static_cast<char>(c);
      }
    }
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) usage("--client has nothing to send (use --spec or stdin)");

  for (const auto& line : lines) {
    const std::string out = line + "\n";
    if (::write(fd, out.data(), out.size()) != static_cast<ssize_t>(out.size())) {
      std::fprintf(stderr, "mbserve: send failed\n");
      ::close(fd);
      return 2;
    }
  }

  std::size_t awaiting = lines.size();
  bool sawError = false;
  std::string inbuf;
  char buf[4096];
  while (awaiting > 0) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;  // daemon gone mid-session
    inbuf.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = inbuf.find('\n')) != std::string::npos) {
      const std::string line = inbuf.substr(0, nl);
      inbuf.erase(0, nl + 1);
      if (line.empty()) continue;
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
      if (isTerminalEvent(line)) {
        if (line.find("\"event\":\"error\"") != std::string::npos) sawError = true;
        if (awaiting > 0) --awaiting;
      }
    }
  }
  ::close(fd);
  if (awaiting > 0) {
    std::fprintf(stderr, "mbserve: connection closed with %zu responses pending\n",
                 awaiting);
    return 2;
  }
  return sawError ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opts;
  opts.cacheDir = "mbserve-cache";
  bool client = false;
  std::vector<std::string> specs;
  std::string value;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::printf("%s", versionBanner("mbserve").c_str());
      return 0;
    }
    if (arg == "--client") {
      client = true;
    } else if (arg == "--stdio") {
      opts.stdio = true;
    } else if (matchFlag(arg, "socket", &value)) {
      opts.socketPath = value;
    } else if (matchFlag(arg, "cache-dir", &value)) {
      opts.cacheDir = value;
    } else if (matchFlag(arg, "journal", &value)) {
      opts.journalPath = value;
    } else if (matchFlag(arg, "inflight", &value)) {
      opts.inflight = parsePositive(value, "--inflight");
    } else if (matchFlag(arg, "sweep-jobs", &value)) {
      opts.jobsPerSweep = parsePositive(value, "--sweep-jobs");
    } else if (matchFlag(arg, "shards", &value)) {
      opts.shards = parsePositive(value, "--shards");
    } else if (matchFlag(arg, "snapshot-budget-mb", &value)) {
      opts.snapshotBudget =
          static_cast<std::size_t>(parsePositive(value, "--snapshot-budget-mb")) << 20;
    } else if (matchFlag(arg, "spec", &value)) {
      specs.push_back(value);
    } else {
      usage(("unknown flag: " + arg).c_str());
    }
  }

  if (client) return runClient(opts.socketPath, specs);
  if (!specs.empty()) usage("--spec is only valid with --client");
  if (opts.socketPath.empty() && !opts.stdio)
    usage("server mode needs --socket=PATH and/or --stdio");
#if defined(__GLIBC__)
  // The daemon builds and frees a whole system per point. Freeing the
  // first point's large arrays (L2 line arrays, the coherence directory)
  // would raise glibc's adaptive mmap threshold past them, so every later
  // point would take them from a worker's heap, and that heap grows by a
  // whole array whenever a small allocation lands in the hole the last one
  // left, at points set by thread timing. A fixed threshold (glibc's
  // initial one) maps each large array for its point and unmaps it after.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  return serve::Server(std::move(opts)).run();
}
