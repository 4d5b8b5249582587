#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <utility>

#include "analysis/diagnostic.hpp"
#include "common/json_mini.hpp"
#include "common/version.hpp"
#include "serve/run_plan.hpp"

namespace mb::serve {

namespace {

using analysis::jsonEscape;

std::string eventError(const std::string& id, const std::string& code,
                       const std::string& message) {
  std::string out = "{\"event\":\"error\"";
  if (!id.empty()) out += ",\"id\":\"" + jsonEscape(id) + "\"";
  out += ",\"code\":\"" + jsonEscape(code) + "\",\"message\":\"" +
         jsonEscape(message) + "\"}";
  return out;
}

}  // namespace

Server::Conn::~Conn() {
  // stdio fds belong to the process; real sockets close with the last
  // owner, which is what makes worker-held shared_ptrs race-free: an fd
  // number is never recycled while a send() could still target it.
  if (readFd > 2) ::close(readFd);
  if (writeFd > 2 && writeFd != readFd) ::close(writeFd);
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheDir), lru_(opts_.snapshotBudget) {}

Server::~Server() {
  {
    const std::lock_guard<std::mutex> lock(stateMu_);
    stop_ = true;
  }
  workCv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  if (journal_ != nullptr) std::fclose(journal_);
  if (listenFd_ >= 0) ::close(listenFd_);
}

// ---------------------------------------------------------------- transport

bool Server::setupSocket() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socketPath.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "mbserve: socket path too long: %s\n",
                 opts_.socketPath.c_str());
    return false;
  }
  std::strncpy(addr.sun_path, opts_.socketPath.c_str(), sizeof addr.sun_path - 1);
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) return false;
  ::unlink(opts_.socketPath.c_str());  // stale socket from a killed daemon
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listenFd_, 16) != 0) {
    std::fprintf(stderr, "mbserve: cannot listen on %s: %s\n",
                 opts_.socketPath.c_str(), std::strerror(errno));
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }
  return true;
}

void Server::acceptConn() {
  const int fd = ::accept(listenFd_, nullptr, nullptr);
  if (fd < 0) return;
  auto conn = std::make_shared<Conn>();
  conn->readFd = fd;
  conn->writeFd = fd;
  conns_[fd] = std::move(conn);
}

bool Server::readConn(const std::shared_ptr<Conn>& conn) {
  char buf[4096];
  const ssize_t n = ::read(conn->readFd, buf, sizeof buf);
  if (n <= 0) return false;
  conn->inbuf.append(buf, static_cast<std::size_t>(n));
  std::size_t nl;
  while ((nl = conn->inbuf.find('\n')) != std::string::npos) {
    std::string line = conn->inbuf.substr(0, nl);
    conn->inbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) handleLine(conn, line);
  }
  return true;
}

void Server::send(const std::shared_ptr<Conn>& conn, const std::string& line) {
  if (conn == nullptr || conn->dead) return;
  const std::string out = line + "\n";
  const std::lock_guard<std::mutex> lock(conn->writeMu);
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(conn->writeFd, out.data() + off, out.size() - off);
    if (n <= 0) {
      // Peer gone (EPIPE with SIGPIPE ignored). The job, if any, keeps
      // running — its results still land in the memo cache.
      conn->dead = true;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void Server::sendError(const std::shared_ptr<Conn>& conn, const std::string& id,
                       const analysis::DiagnosticEngine& diags) {
  // The first error diagnostic names the rejection; job_spec reports
  // exactly one MB-SRV-* code per rejection (lint rejections also carry the
  // underlying MB-CFG/MB-TIM findings, but the MB-SRV code is terminal).
  std::string code = "MB-SRV-001", message = "request rejected";
  for (const auto& d : diags.diagnostics()) {
    if (d.code.rfind("MB-SRV-", 0) == 0) {
      code = d.code;
      message = d.message;
      break;
    }
  }
  send(conn, eventError(id, code, message));
}

// -------------------------------------------------------------------- verbs

void Server::handleLine(const std::shared_ptr<Conn>& conn, const std::string& line) {
  analysis::DiagnosticEngine diags;
  JobSpec spec;
  if (!parseJobSpec(line, &spec, diags)) {
    sendError(conn, "", diags);
    return;
  }
  if (spec.verb == "submit") {
    handleSubmit(conn, std::move(spec));
  } else if (spec.verb == "status") {
    handleStatus(conn);
  } else if (spec.verb == "cancel") {
    handleCancel(conn, spec.id);
  } else if (spec.verb == "flush-cache") {
    handleFlush(conn);
  } else {  // shutdown
    const std::lock_guard<std::mutex> lock(stateMu_);
    draining_ = true;
    shutdownConn_ = conn;
  }
}

void Server::handleSubmit(const std::shared_ptr<Conn>& conn, JobSpec spec) {
  analysis::DiagnosticEngine diags;
  auto job = std::make_shared<Job>();
  if (!planJob(spec, &job->plan, diags)) {
    sendError(conn, spec.id, diags);
    return;
  }
  job->id = spec.id;
  job->client = spec.client;
  job->conn = conn;
  job->spec = std::move(spec);

  {
    const std::lock_guard<std::mutex> lock(stateMu_);
    if (draining_) {
      send(conn, eventError(job->id, "MB-SRV-010",
                            "server is draining; submission rejected"));
      return;
    }
    if (jobs_.count(job->id) != 0) {
      send(conn, eventError(job->id, "MB-SRV-005",
                            "job id \"" + job->id + "\" is already active"));
      return;
    }
    if (!queue_.push(job->client, job->id, opts_.maxQueuedPerClient)) {
      send(conn, eventError(job->id, "MB-SRV-010",
                            "client \"" + job->client +
                                "\" is over its queued-job limit"));
      return;
    }
    jobs_[job->id] = job;
  }
  journalLine("{\"accepted\":\"" + jsonEscape(job->id) + "\",\"spec\":\"" +
              jsonEscape(canonicalJson(job->spec)) + "\"}");
  send(conn, "{\"event\":\"accepted\",\"id\":\"" + jsonEscape(job->id) +
                 "\",\"points\":" + std::to_string(job->plan.points.size()) + "}");
  workCv_.notify_one();
}

void Server::handleStatus(const std::shared_ptr<Conn>& conn) {
  std::string out;
  {
    const std::lock_guard<std::mutex> lock(stateMu_);
    out = "{\"event\":\"status\",\"queued\":" + std::to_string(queue_.pending()) +
          ",\"running\":" + std::to_string(running_) +
          ",\"completedJobs\":" + std::to_string(completedJobs_) +
          ",\"simulatedPoints\":" + std::to_string(simulatedPoints_) +
          ",\"cachedPoints\":" + std::to_string(cachedPoints_) +
          ",\"failedPoints\":" + std::to_string(failedPoints_);
  }
  const ResultCache::Stats cs = cache_.stats();
  const SnapshotLru::Stats ls = lru_.stats();
  out += ",\"cache\":{\"hits\":" + std::to_string(cs.hits) +
         ",\"misses\":" + std::to_string(cs.misses) +
         ",\"stores\":" + std::to_string(cs.stores) +
         ",\"entries\":" + std::to_string(cache_.entries()) + "}";
  out += ",\"lru\":{\"hits\":" + std::to_string(ls.hits) +
         ",\"misses\":" + std::to_string(ls.misses) +
         ",\"evictions\":" + std::to_string(ls.evictions) +
         ",\"bytes\":" + std::to_string(ls.bytes) + "}}";
  send(conn, out);
}

void Server::handleCancel(const std::shared_ptr<Conn>& conn, const std::string& id) {
  bool known = false;
  {
    const std::lock_guard<std::mutex> lock(stateMu_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      known = true;
      it->second->cancel.store(true, std::memory_order_relaxed);
      // Still queued (not yet claimed by a worker): drop it here and write
      // the terminal journal line; the worker path never sees it.
      if (!it->second->running && queue_.remove(it->second->client, id)) {
        jobs_.erase(it);
        journalLine("{\"canceled\":\"" + jsonEscape(id) + "\"}");
      }
    }
  }
  if (!known) {
    send(conn, eventError(id, "MB-SRV-008", "unknown job id \"" + id + "\""));
    return;
  }
  send(conn, "{\"event\":\"canceled\",\"id\":\"" + jsonEscape(id) + "\"}");
}

void Server::handleFlush(const std::shared_ptr<Conn>& conn) {
  const std::size_t removed = cache_.flush();
  send(conn, "{\"event\":\"flushed\",\"removed\":" + std::to_string(removed) + "}");
}

// ------------------------------------------------------------------ journal

bool Server::openJournal() {
  if (opts_.journalPath.empty()) return true;

  // Existing journal: replay accepted-without-terminal jobs, then append.
  std::FILE* existing = std::fopen(opts_.journalPath.c_str(), "rb");
  if (existing != nullptr) {
    std::string content;
    char buf[4096];
    for (;;) {
      const std::size_t n = std::fread(buf, 1, sizeof buf, existing);
      content.append(buf, n);
      if (n < sizeof buf) break;
    }
    std::fclose(existing);

    // id -> canonical spec line, insertion-ordered by a side vector so
    // resumed jobs re-enter the queue in original acceptance order.
    std::map<std::string, std::string> pending;
    std::vector<std::string> order;
    bool sawHeader = false;
    std::size_t start = 0;
    while (start < content.size()) {
      std::size_t nl = content.find('\n', start);
      if (nl == std::string::npos) nl = content.size();  // torn final line
      const std::string line = content.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      json::JVal v;
      json::JParser p(line);
      if (!p.parse(&v) || v.t != json::JVal::T::Obj) continue;  // torn write
      if (!sawHeader) {
        const json::JVal* magic = v.get("mbserve");
        if (magic == nullptr || magic->t != json::JVal::T::Int || magic->i != 1) {
          std::fprintf(stderr,
                       "mbserve: %s is not an mbserve journal (MB-SRV-009)\n",
                       opts_.journalPath.c_str());
          return false;
        }
        sawHeader = true;
        continue;
      }
      if (const json::JVal* a = v.get("accepted")) {
        const json::JVal* spec = v.get("spec");
        if (a->t != json::JVal::T::Str || spec == nullptr ||
            spec->t != json::JVal::T::Str)
          continue;
        if (pending.emplace(a->s, spec->s).second) order.push_back(a->s);
      } else if (const json::JVal* c = v.get("completed")) {
        if (c->t == json::JVal::T::Str) pending.erase(c->s);
      } else if (const json::JVal* x = v.get("canceled")) {
        if (x->t == json::JVal::T::Str) pending.erase(x->s);
      }
    }
    if (!sawHeader && !content.empty()) {
      std::fprintf(stderr, "mbserve: %s is not an mbserve journal (MB-SRV-009)\n",
                   opts_.journalPath.c_str());
      return false;
    }

    journal_ = std::fopen(opts_.journalPath.c_str(), "ab");
    if (journal_ == nullptr) return false;
    if (!sawHeader)
      journalLine("{\"mbserve\":1,\"tool\":\"" + jsonEscape(versionString()) + "\"}");

    for (const auto& id : order) {
      const auto it = pending.find(id);
      if (it == pending.end()) continue;  // finished before the restart
      analysis::DiagnosticEngine diags;
      JobSpec spec;
      auto job = std::make_shared<Job>();
      if (!parseJobSpec(it->second, &spec, diags) ||
          !planJob(spec, &job->plan, diags)) {
        // The stored spec no longer validates (preset removed, version
        // semantics changed): journal it closed so restarts stop retrying.
        std::fprintf(stderr, "mbserve: dropping unresumable job %s:\n%s", id.c_str(),
                     diags.renderText().c_str());
        journalLine("{\"canceled\":\"" + jsonEscape(id) + "\"}");
        continue;
      }
      job->id = spec.id;
      job->client = spec.client;
      job->spec = std::move(spec);
      const std::lock_guard<std::mutex> lock(stateMu_);
      if (jobs_.count(job->id) != 0) continue;
      if (!queue_.push(job->client, job->id, opts_.maxQueuedPerClient)) continue;
      jobs_[job->id] = job;
      std::fprintf(stderr, "mbserve: resuming job %s (%zu points)\n", id.c_str(),
                   job->plan.points.size());
    }
    return true;
  }

  journal_ = std::fopen(opts_.journalPath.c_str(), "wb");
  if (journal_ == nullptr) {
    std::fprintf(stderr, "mbserve: cannot open journal %s\n",
                 opts_.journalPath.c_str());
    return false;
  }
  journalLine("{\"mbserve\":1,\"tool\":\"" + jsonEscape(versionString()) + "\"}");
  return true;
}

void Server::journalLine(const std::string& line) {
  const std::lock_guard<std::mutex> lock(journalMu_);
  if (journal_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), journal_);
  std::fputc('\n', journal_);
  // Flushed per line: a SIGKILL loses at most the line being written, and
  // the loader skips a torn trailing line.
  std::fflush(journal_);
}

// ---------------------------------------------------------------- execution

void Server::workerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(stateMu_);
      workCv_.wait(lock, [this] { return stop_ || queue_.pending() > 0; });
      if (stop_) return;
      const auto next = queue_.pop();
      if (!next.has_value()) continue;
      const auto it = jobs_.find(next->jobId);
      if (it == jobs_.end()) continue;  // canceled while queued
      job = it->second;
      job->running = true;
      ++running_;
    }
    executeJob(job);
    {
      const std::lock_guard<std::mutex> lock(stateMu_);
      jobs_.erase(job->id);
      --running_;
      ++completedJobs_;
    }
  }
}

void Server::executeJob(const std::shared_ptr<Job>& job) {
  const JobPlan& plan = job->plan;
  const std::size_t total = plan.points.size();
  const std::string jid = jsonEscape(job->id);

  sim::SweepOptions sopts;
  sopts.jobs = opts_.jobsPerSweep;
  sopts.cancel = &job->cancel;
  sopts.onProgress = [&](const sim::SweepProgress& p) {
    send(job->conn, "{\"event\":\"progress\",\"id\":\"" + jid +
                        "\",\"done\":" + std::to_string(p.done) +
                        ",\"total\":" + std::to_string(total) +
                        ",\"failed\":" + std::to_string(p.failed) + "}");
  };
  const std::vector<PointResult> outs = runPlan(plan, &cache_, lru_, sopts, opts_.shards);

  // Emit point events in point order — buffered, so one job's stream is
  // identical no matter how the sweep interleaved.
  std::size_t okCount = 0, failCount = 0, canceledCount = 0, simulated = 0,
              cachedCount = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const PointResult& out = outs[i];
    if (out.ok) ++okCount;
    if (out.canceled)
      ++canceledCount;
    else if (out.cached)
      ++cachedCount;
    else
      ++simulated;
    if (!out.ok && !out.canceled) ++failCount;
    std::string line = "{\"event\":\"point\",\"id\":\"" + jid +
                       "\",\"point\":" + std::to_string(i) + ",\"label\":\"" +
                       jsonEscape(plan.points[i].label) + "\"";
    line += out.cached ? ",\"cached\":true" : ",\"cached\":false";
    if (out.ok) {
      line += ",\"ok\":true,\"result\":" + out.json + "}";
    } else if (out.canceled) {
      line += ",\"ok\":false,\"canceled\":true}";
    } else {
      line += ",\"ok\":false,\"error\":\"" + jsonEscape(out.error) + "\"}";
    }
    send(job->conn, line);
  }
  send(job->conn,
       "{\"event\":\"done\",\"id\":\"" + jid + "\",\"ok\":" +
           ((okCount == total) ? "true" : "false") +
           ",\"points\":" + std::to_string(total) +
           ",\"cached\":" + std::to_string(cachedCount) +
           ",\"simulated\":" + std::to_string(simulated) +
           ",\"failed\":" + std::to_string(failCount) +
           ",\"canceled\":" + std::to_string(canceledCount) + "}");

  {
    const std::lock_guard<std::mutex> lock(stateMu_);
    simulatedPoints_ += static_cast<std::int64_t>(simulated);
    cachedPoints_ += static_cast<std::int64_t>(cachedCount);
    failedPoints_ += static_cast<std::int64_t>(failCount);
  }
  journalLine((canceledCount > 0 ? "{\"canceled\":\"" : "{\"completed\":\"") + jid +
              "\"}");
}

// ---------------------------------------------------------------- main loop

int Server::run() {
  if (!cache_.ok()) {
    std::fprintf(stderr, "mbserve: cannot create cache dir %s\n",
                 opts_.cacheDir.c_str());
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  if (!openJournal()) return 2;
  if (!opts_.socketPath.empty() && !setupSocket()) return 2;
  if (opts_.stdio) {
    auto conn = std::make_shared<Conn>();
    conn->readFd = 0;
    conn->writeFd = 1;
    conns_[0] = std::move(conn);
  }
  if (listenFd_ < 0 && !opts_.stdio) {
    std::fprintf(stderr, "mbserve: no transport (need --socket or --stdio)\n");
    return 2;
  }

  const int inflight = opts_.inflight > 0 ? opts_.inflight : 1;
  if (opts_.shards < 1) opts_.shards = 1;
  if (opts_.jobsPerSweep <= 0) {
    // Each concurrently running point uses `shards` threads (its own plus a
    // pool of shards - 1); budget the sweep slots so
    // inflight * jobsPerSweep * shards ~ cores.
    const int budget = sim::resolveJobs(0) / (inflight * opts_.shards);
    opts_.jobsPerSweep = budget > 0 ? budget : 1;
  }
  workers_.reserve(static_cast<std::size_t>(inflight));
  for (int i = 0; i < inflight; ++i)
    workers_.emplace_back([this] { workerLoop(); });
  workCv_.notify_all();  // resumed journal jobs may already be queued

  bool stdinEof = false;
  for (;;) {
    std::vector<pollfd> fds;
    if (listenFd_ >= 0) fds.push_back({listenFd_, POLLIN, 0});
    std::vector<int> connFds;
    for (const auto& [fd, conn] : conns_) {
      if (conn->dead) continue;
      fds.push_back({fd, POLLIN, 0});
      connFds.push_back(fd);
    }
    // The timeout paces drain checks; nothing in the loop reads a clock.
    ::poll(fds.data(), fds.size(), 200);

    std::size_t at = 0;
    if (listenFd_ >= 0) {
      if ((fds[at].revents & POLLIN) != 0) acceptConn();
      ++at;
    }
    for (const int fd : connFds) {
      // conns_ may have grown via acceptConn; look the fd up again.
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const auto& conn = it->second;
      bool open = true;
      for (; at < fds.size(); ++at) {
        if (fds[at].fd != fd) continue;
        if ((fds[at].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
          open = readConn(conn);
        ++at;
        break;
      }
      if (!open) {
        // Stdin EOF only closes the request side — stdout stays writable,
        // so in-flight jobs still stream their events. A socket peer that
        // closed is gone for real.
        if (fd == 0)
          stdinEof = true;
        else
          conn->dead = true;
        conns_.erase(it);  // workers' shared_ptrs keep it alive
      }
    }

    bool drain;
    {
      const std::lock_guard<std::mutex> lock(stateMu_);
      // Pure-stdio servers treat stdin EOF as a shutdown request: drain the
      // accepted jobs, then exit — this is what the e2e pipe tests rely on.
      if (stdinEof && listenFd_ < 0) draining_ = true;
      drain = draining_ && queue_.pending() == 0 && running_ == 0;
    }
    if (drain) {
      send(shutdownConn_, "{\"event\":\"bye\"}");
      break;
    }
  }

  {
    const std::lock_guard<std::mutex> lock(stateMu_);
    stop_ = true;
  }
  workCv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(opts_.socketPath.c_str());
  }
  return 0;
}

}  // namespace mb::serve
