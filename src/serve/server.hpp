// mbserve daemon core: transports, fair scheduling, memoization, journal.
//
// One Server owns:
//   - the transports: an optional Unix-domain listening socket plus an
//     optional stdin/stdout connection (the latter doubles as the e2e test
//     harness — drive the full protocol through a pipe, no socket needed);
//   - a FairJobQueue feeding `inflight` worker threads, each of which runs
//     one whole job at a time on a SweepRunner (per-job cancellation token,
//     machine-readable progress);
//   - a ResultCache: every finished point's canonical JSON report is stored
//     content-addressed, and a submit first partitions its points into
//     cache hits (served from disk, byte-identical to a cold run) and
//     misses (simulated, then stored) — serve::runPlan, the same path
//     `mbsim --sweep --cache-dir` resumes through;
//   - a SnapshotLru serving functional-warmup snapshots: miss points that
//     request warmup share one snapshot per warmupKeyHash, generated at
//     most once and pinned for the duration of the job;
//   - an accept journal (JSONL): every accepted submit is recorded before
//     it runs and marked completed/canceled after. On startup with an
//     existing journal, accepted-but-unfinished jobs are re-planned and
//     re-enqueued — a SIGKILLed daemon resumes its backlog, and the points
//     it had already finished come back as cache hits, so nothing runs
//     twice.
//
// Protocol: JSONL both ways. Requests are job specs (serve/job_spec.hpp);
// responses are events — accepted, progress, point, done, error, status,
// canceled, flushed, bye. Point events are buffered and emitted in point
// order after the run, so a client's stream for one job is deterministic
// regardless of sweep parallelism or sibling clients. Grammar and the
// MB-SRV-* registry: DESIGN.md §"Serving layer".
//
// Determinism housekeeping: no wall clocks anywhere in src/serve (poll
// timeouts pace the event loop; the LRU ages by use counter), ordered
// containers only — the tree stays mbdetcheck-clean.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/fair_queue.hpp"
#include "serve/job_spec.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_lru.hpp"

namespace mb::serve {

struct ServerOptions {
  /// Unix-domain socket to listen on; empty = no socket transport.
  std::string socketPath;
  /// Serve a single connection over stdin/stdout. EOF on stdin drains and
  /// exits (when no socket transport is active).
  bool stdio = false;
  /// Result-cache directory (required; created if missing).
  std::string cacheDir;
  /// Accept journal; empty = no journal (no crash resume). An existing file
  /// is loaded and unfinished jobs resume before the first connection.
  std::string journalPath;
  /// Concurrent jobs (worker threads).
  int inflight = 2;
  /// SweepRunner workers per job; <= 0 derives
  /// resolveJobs(0) / (inflight * shards) (at least 1) so the slots share
  /// the machine instead of oversubscribing.
  int jobsPerSweep = 0;
  /// Channel-shard worker threads inside each simulation (RunOptions::
  /// shards). Results are byte-identical at any value, so the result cache
  /// deliberately ignores this knob; it only multiplies the thread budget a
  /// job consumes (hence the jobsPerSweep derivation above).
  int shards = 1;
  /// Queued-job cap per client (admission back-pressure, MB-SRV-010).
  std::size_t maxQueuedPerClient = 64;
  /// Warmup-snapshot LRU byte budget.
  std::size_t snapshotBudget = std::size_t{256} << 20;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until a shutdown verb (or stdin EOF in pure-stdio mode) drains
  /// the queue. Blocks. Returns 0 on clean exit, 2 on a setup failure
  /// (cache dir, socket, journal).
  int run();

 private:
  struct Conn {
    int readFd = -1;
    int writeFd = -1;
    bool dead = false;  // peer gone; job results still land in the cache
    std::string inbuf;
    std::mutex writeMu;
    ~Conn();
  };

  struct Job {
    std::string id;
    std::string client;
    JobSpec spec;
    JobPlan plan;
    std::shared_ptr<Conn> conn;  // null: headless (journal resume)
    std::atomic<bool> cancel{false};
    bool running = false;
  };

  // --- transport (main thread) ---
  bool setupSocket();
  void acceptConn();
  /// Drain readable bytes; true while the connection stays open.
  bool readConn(const std::shared_ptr<Conn>& conn);
  void handleLine(const std::shared_ptr<Conn>& conn, const std::string& line);
  void send(const std::shared_ptr<Conn>& conn, const std::string& line);
  void sendError(const std::shared_ptr<Conn>& conn, const std::string& id,
                 const analysis::DiagnosticEngine& diags);

  // --- verbs (main thread) ---
  void handleSubmit(const std::shared_ptr<Conn>& conn, JobSpec spec);
  void handleStatus(const std::shared_ptr<Conn>& conn);
  void handleCancel(const std::shared_ptr<Conn>& conn, const std::string& id);
  void handleFlush(const std::shared_ptr<Conn>& conn);

  // --- journal ---
  bool openJournal();  // load + resume if the file exists, then append
  void journalLine(const std::string& line);

  // --- execution (worker threads) ---
  void workerLoop();
  void executeJob(const std::shared_ptr<Job>& job);

  ServerOptions opts_;
  ResultCache cache_;
  SnapshotLru lru_;

  int listenFd_ = -1;
  std::map<int, std::shared_ptr<Conn>> conns_;  // by read fd (main thread)

  std::mutex stateMu_;
  std::condition_variable workCv_;
  FairJobQueue queue_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;  // queued + running
  bool draining_ = false;
  bool stop_ = false;
  int running_ = 0;
  std::shared_ptr<Conn> shutdownConn_;
  // Since-startup totals (status event; the ci.sh resume stage reads these).
  std::int64_t completedJobs_ = 0;
  std::int64_t simulatedPoints_ = 0;
  std::int64_t cachedPoints_ = 0;
  std::int64_t failedPoints_ = 0;

  std::mutex journalMu_;
  std::FILE* journal_ = nullptr;

  std::vector<std::thread> workers_;
};

}  // namespace mb::serve
