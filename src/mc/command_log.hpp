// DRAM command-stream capture: the raw material for offline auditing.
//
// A CommandLog is a sink the memory controller feeds every command it
// commits — request commands (ACT/PRE/RD/WR with the data-burst bounds the
// device model charged), policy-initiated idle precharges, refreshes (with
// the refreshed bank, or -1 for all-bank), and the perfect-oracle's
// retroactive precharges (pseudo-events that close a row without a bus
// slot). The stream is exactly what the controller's live protocol auditor
// sees, so an offline pass over it re-verifies every protocol and energy
// claim a run makes with the same rules (mc/trace_audit.hpp).
//
// CommandLogWriter streams the events to a compact little-endian binary
// format, MBCMDT1, mirroring the MBTRACE1 convention of
// trace/trace_file.*:
//
//   magic   8 bytes "MBCMDT1\0", u32 version (1), u32 reserved
//   config  the geometry / address-map / timing / energy parameter set the
//           run used, so a trace is self-describing: the auditor re-derives
//           device state and energy from the file alone
//   event   u8 kind | i16 channel | i16 rank | i16 bank | i16 ubank |
//           i64 row | i64 column | i64 tick | i64 dataStart | i64 dataEnd
//           (row/column/burst bounds are -1 where not meaningful)
//   trailer kind EndOfRun | i64 elapsed | f64 actPre | f64 rdwr | f64 io |
//           f64 static | i64 activations | i64 casOps | i64 refreshes
//           — the live dram::EnergyMeter totals at finalize, recorded so an
//           offline recompute can cross-check the in-run accounting.
//
// Reading reports malformed input (bad magic, unsupported version,
// truncated event, header-only file, trailing garbage) as stable MB-TRC
// diagnostics through a DiagnosticEngine instead of aborting: an auditor
// must be able to reject a corrupt trace gracefully.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "common/types.hpp"
#include "core/address_map.hpp"
#include "dram/energy.hpp"
#include "dram/geometry.hpp"
#include "dram/timing.hpp"
#include "mc/device_state.hpp"

namespace mb::mc {

/// Event kinds as stored on disk. Act..Refresh match DramCommand order.
enum class CmdEventKind : std::uint8_t {
  Act = 0,
  Pre = 1,
  Read = 2,
  Write = 3,
  Refresh = 4,
  OraclePre = 5,
  EndOfRun = 6,  // trailer, not an event
};

const char* cmdEventKindName(CmdEventKind kind);

/// One decoded trace event.
struct CmdEvent {
  CmdEventKind kind = CmdEventKind::Act;
  int channel = 0;
  int rank = 0;
  int bank = 0;   // -1: all-bank refresh
  int ubank = 0;
  std::int64_t row = -1;
  std::int64_t column = -1;
  Tick at = 0;
  Tick dataStart = -1;
  Tick dataEnd = -1;
};

/// The events the controller commits. A committed ACT/PRE/RD/WR: for CAS
/// commands `dataStart`/`dataEnd` bound the data burst the device model
/// charged, -1 otherwise.
CmdEvent commandEvent(DramCommand cmd, const core::DramAddress& da, Tick at,
                      Tick dataStart, Tick dataEnd);
/// One elapsed refresh interval; `bank` is -1 for an all-bank refresh, the
/// refreshed bank index in per-bank mode.
CmdEvent refreshEvent(int channel, int rank, int bank, Tick at);
/// The perfect-oracle page policy retroactively closed this μbank's row (no
/// physical PRE was modelled; see MemoryController::enqueue).
CmdEvent oraclePreEvent(const core::DramAddress& da, Tick at);

/// Sink for the controller's committed command stream, one call per event.
/// Not owned by the controller; one sink may serve every controller of a
/// run (the event queue is single-threaded, so no locking is needed).
class CommandLog {
 public:
  virtual ~CommandLog() = default;
  virtual void onEvent(const CmdEvent& ev) = 0;
};

/// The configuration block every trace carries: enough to rebuild the
/// device model (shadow state, address map, energy) with no side channel.
struct CmdTraceConfig {
  dram::Geometry geom;
  dram::TimingParams timing;
  dram::EnergyParams energy;
  int interleaveBaseBit = 6;
  bool xorBankHash = false;
};

/// End-of-run trailer: the live energy accounting to cross-check against.
struct CmdTraceTrailer {
  bool present = false;
  Tick elapsed = 0;
  double actPre = 0.0;
  double rdwr = 0.0;
  double io = 0.0;
  double staticEnergy = 0.0;
  std::int64_t activations = 0;
  std::int64_t casOps = 0;
  std::int64_t refreshes = 0;
};

/// A fully loaded command trace.
struct CmdTrace {
  CmdTraceConfig config;
  std::vector<CmdEvent> events;
  CmdTraceTrailer trailer;
};

/// Streams the command log to an MBCMDT1 file. Events are buffered and
/// written in large blocks, so per-command overhead is a few stores plus an
/// occasional fwrite — cheap enough to leave recording on for full runs.
class CommandLogWriter final : public CommandLog {
 public:
  CommandLogWriter(const std::string& path, const CmdTraceConfig& config);
  ~CommandLogWriter() override;
  CommandLogWriter(const CommandLogWriter&) = delete;
  CommandLogWriter& operator=(const CommandLogWriter&) = delete;

  void onEvent(const CmdEvent& ev) override;

  /// Write the end-of-run trailer (once, after the run completes).
  void writeTrailer(const CmdTraceTrailer& trailer);

  std::int64_t eventsWritten() const { return events_; }
  /// Flush and close; called by the destructor if not done explicitly.
  void close();

 private:
  void putBytes(const void* data, std::size_t n);
  void flush();

  std::FILE* file_ = nullptr;
  std::vector<char> buf_;
  std::int64_t events_ = 0;
  bool trailerWritten_ = false;
};

/// In-memory CommandLog (tests / programmatic audits): records the same
/// event stream the writer would serialize.
class CommandLogRecorder final : public CommandLog {
 public:
  explicit CommandLogRecorder(const CmdTraceConfig& config) {
    trace_.config = config;
  }

  void onEvent(const CmdEvent& ev) override { trace_.events.push_back(ev); }

  void setTrailer(const CmdTraceTrailer& trailer) { trace_.trailer = trailer; }
  CmdTrace& trace() { return trace_; }
  const CmdTrace& trace() const { return trace_; }

 private:
  CmdTrace trace_;
};

/// Load an MBCMDT1 file. Malformed input is reported to `diags` with a
/// stable MB-TRC code (006 open, 007 magic, 008 version, 009 truncated,
/// 010 no events, 011 unknown event kind, 012 trailing data) and returns
/// nullopt; this function never aborts the process.
std::optional<CmdTrace> readCmdTrace(const std::string& path,
                                     analysis::DiagnosticEngine& diags);

}  // namespace mb::mc
