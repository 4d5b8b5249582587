#include "mc/command_log.hpp"

#include <cstring>
#include <memory>

#include "common/check.hpp"

namespace mb::mc {

namespace {

constexpr char kMagic[8] = {'M', 'B', 'C', 'M', 'D', 'T', '1', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kWriteBufferBytes = 256 * 1024;

template <typename T>
void putScalar(std::vector<char>& buf, T value) {
  // Little-endian on-disk; every supported build target is little-endian,
  // so a plain byte copy is the portable-enough encoding (same convention
  // as trace/trace_file.cpp).
  const char* p = reinterpret_cast<const char*>(&value);
  buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
bool readScalar(std::FILE* f, T* out) {
  return std::fread(out, 1, sizeof(T), f) == sizeof(T);
}

}  // namespace

const char* cmdEventKindName(CmdEventKind kind) {
  switch (kind) {
    case CmdEventKind::Act: return "ACT";
    case CmdEventKind::Pre: return "PRE";
    case CmdEventKind::Read: return "RD";
    case CmdEventKind::Write: return "WR";
    case CmdEventKind::Refresh: return "REF";
    case CmdEventKind::OraclePre: return "ORACLE-PRE";
    case CmdEventKind::EndOfRun: return "END";
  }
  return "?";
}

namespace {

CmdEventKind kindOf(DramCommand cmd) {
  switch (cmd) {
    case DramCommand::Act: return CmdEventKind::Act;
    case DramCommand::Pre: return CmdEventKind::Pre;
    case DramCommand::Read: return CmdEventKind::Read;
    case DramCommand::Write: return CmdEventKind::Write;
    case DramCommand::Refresh: return CmdEventKind::Refresh;
  }
  MB_CHECK(false && "unreachable DramCommand");
  return CmdEventKind::Act;
}

CmdEvent makeEvent(CmdEventKind kind, const core::DramAddress& da, Tick at,
                   Tick dataStart, Tick dataEnd) {
  CmdEvent ev;
  ev.kind = kind;
  ev.channel = da.channel;
  ev.rank = da.rank;
  ev.bank = da.bank;
  ev.ubank = da.ubank;
  ev.row = da.row;
  ev.column = da.column;
  ev.at = at;
  ev.dataStart = dataStart;
  ev.dataEnd = dataEnd;
  return ev;
}

}  // namespace

CmdEvent commandEvent(DramCommand cmd, const core::DramAddress& da, Tick at,
                      Tick dataStart, Tick dataEnd) {
  return makeEvent(kindOf(cmd), da, at, dataStart, dataEnd);
}

CmdEvent refreshEvent(int channel, int rank, int bank, Tick at) {
  CmdEvent ev;
  ev.kind = CmdEventKind::Refresh;
  ev.channel = channel;
  ev.rank = rank;
  ev.bank = bank;  // -1: all-bank
  ev.at = at;
  return ev;
}

CmdEvent oraclePreEvent(const core::DramAddress& da, Tick at) {
  return makeEvent(CmdEventKind::OraclePre, da, at, -1, -1);
}

CommandLogWriter::CommandLogWriter(const std::string& path,
                                   const CmdTraceConfig& config) {
  file_ = std::fopen(path.c_str(), "wb");
  MB_CHECK_MSG(file_ != nullptr, "cannot open command trace for writing: %s",
               path.c_str());
  buf_.reserve(kWriteBufferBytes + 1024);
  putBytes(kMagic, sizeof(kMagic));
  putScalar<std::uint32_t>(buf_, kVersion);
  putScalar<std::uint32_t>(buf_, 0);  // reserved
  // Configuration block: geometry, address map, timing, energy.
  const auto& g = config.geom;
  putScalar<std::int32_t>(buf_, g.channels);
  putScalar<std::int32_t>(buf_, g.ranksPerChannel);
  putScalar<std::int32_t>(buf_, g.banksPerRank);
  putScalar<std::int32_t>(buf_, g.ubank.nW);
  putScalar<std::int32_t>(buf_, g.ubank.nB);
  putScalar<std::int64_t>(buf_, g.rowBytes);
  putScalar<std::int64_t>(buf_, g.capacityBytes);
  putScalar<std::int32_t>(buf_, g.lineBytes);
  putScalar<std::int32_t>(buf_, config.interleaveBaseBit);
  putScalar<std::uint8_t>(buf_, config.xorBankHash ? 1 : 0);
  const auto& t = config.timing;
  for (Tick v : {t.tCMD, t.tBURST, t.tCCD, t.tRTRS, t.tRCD, t.tAA, t.tRAS, t.tRP,
                 t.tRRD, t.tFAW, t.tWR, t.tWTR, t.tRTP, t.tREFI, t.tRFC, t.tRFCpb})
    putScalar<std::int64_t>(buf_, v);
  const auto& e = config.energy;
  putScalar<double>(buf_, e.actPreFullRow);
  putScalar<std::int64_t>(buf_, e.fullRowBytes);
  putScalar<double>(buf_, e.rdwrPerBit);
  putScalar<double>(buf_, e.ioPerBit);
  putScalar<double>(buf_, e.latchPerUbankAccess);
  putScalar<double>(buf_, e.staticPowerPerRankWatts);
  putScalar<double>(buf_, e.refreshPerRank);
}

CommandLogWriter::~CommandLogWriter() { close(); }

void CommandLogWriter::putBytes(const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void CommandLogWriter::flush() {
  if (file_ == nullptr || buf_.empty()) return;
  const std::size_t written = std::fwrite(buf_.data(), 1, buf_.size(), file_);
  MB_CHECK_MSG(written == buf_.size(), "short write to command trace (%zu/%zu)",
               written, buf_.size());
  buf_.clear();
}

void CommandLogWriter::onEvent(const CmdEvent& ev) {
  MB_CHECK(file_ != nullptr && !trailerWritten_ && "event after trailer/close");
  putScalar<std::uint8_t>(buf_, static_cast<std::uint8_t>(ev.kind));
  putScalar<std::int16_t>(buf_, static_cast<std::int16_t>(ev.channel));
  putScalar<std::int16_t>(buf_, static_cast<std::int16_t>(ev.rank));
  putScalar<std::int16_t>(buf_, static_cast<std::int16_t>(ev.bank));
  putScalar<std::int16_t>(buf_, static_cast<std::int16_t>(ev.ubank));
  putScalar<std::int64_t>(buf_, ev.row);
  putScalar<std::int64_t>(buf_, ev.column);
  putScalar<std::int64_t>(buf_, ev.at);
  putScalar<std::int64_t>(buf_, ev.dataStart);
  putScalar<std::int64_t>(buf_, ev.dataEnd);
  ++events_;
  if (buf_.size() >= kWriteBufferBytes) flush();
}

void CommandLogWriter::writeTrailer(const CmdTraceTrailer& trailer) {
  MB_CHECK(file_ != nullptr && !trailerWritten_ && "duplicate trailer");
  trailerWritten_ = true;
  putScalar<std::uint8_t>(buf_, static_cast<std::uint8_t>(CmdEventKind::EndOfRun));
  putScalar<std::int64_t>(buf_, trailer.elapsed);
  putScalar<double>(buf_, trailer.actPre);
  putScalar<double>(buf_, trailer.rdwr);
  putScalar<double>(buf_, trailer.io);
  putScalar<double>(buf_, trailer.staticEnergy);
  putScalar<std::int64_t>(buf_, trailer.activations);
  putScalar<std::int64_t>(buf_, trailer.casOps);
  putScalar<std::int64_t>(buf_, trailer.refreshes);
}

void CommandLogWriter::close() {
  if (file_ == nullptr) return;
  flush();
  std::fclose(file_);
  file_ = nullptr;
}

namespace {

[[nodiscard]] analysis::Diagnostic traceDiag(const char* code, const std::string& msg,
                                             const std::string& path) {
  analysis::Diagnostic d(code, analysis::Severity::Error, msg);
  d.with("file", path);
  return d;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

std::optional<CmdTrace> readCmdTrace(const std::string& path,
                                     analysis::DiagnosticEngine& diags) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "rb"));
  std::FILE* f = file.get();
  if (f == nullptr) {
    diags.report(traceDiag("MB-TRC-006", "cannot open command trace", path));
    return std::nullopt;
  }

  char magic[8];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    diags.report(traceDiag("MB-TRC-007", "not an MBCMDT1 command trace (bad magic)",
                           path));
    return std::nullopt;
  }
  std::uint32_t version = 0, reserved = 0;
  if (!readScalar(f, &version) || !readScalar(f, &reserved)) {
    diags.report(traceDiag("MB-TRC-009", "truncated command-trace header", path));
    return std::nullopt;
  }
  if (version != kVersion) {
    diags.report(traceDiag("MB-TRC-008", "unsupported command-trace version", path)
                     .with("version", static_cast<std::int64_t>(version))
                     .with("supported", static_cast<std::int64_t>(kVersion)));
    return std::nullopt;
  }

  CmdTrace trace;
  auto& cfg = trace.config;
  bool ok = true;
  auto rd32 = [&](int* out) {
    std::int32_t v = 0;
    ok = ok && readScalar(f, &v);
    *out = static_cast<int>(v);
  };
  auto rd64 = [&](std::int64_t* out) { ok = ok && readScalar(f, out); };
  auto rdF = [&](double* out) { ok = ok && readScalar(f, out); };

  rd32(&cfg.geom.channels);
  rd32(&cfg.geom.ranksPerChannel);
  rd32(&cfg.geom.banksPerRank);
  rd32(&cfg.geom.ubank.nW);
  rd32(&cfg.geom.ubank.nB);
  rd64(&cfg.geom.rowBytes);
  rd64(&cfg.geom.capacityBytes);
  rd32(&cfg.geom.lineBytes);
  rd32(&cfg.interleaveBaseBit);
  std::uint8_t xorHash = 0;
  ok = ok && readScalar(f, &xorHash);
  cfg.xorBankHash = xorHash != 0;
  auto& t = cfg.timing;
  for (Tick* v : {&t.tCMD, &t.tBURST, &t.tCCD, &t.tRTRS, &t.tRCD, &t.tAA, &t.tRAS,
                  &t.tRP, &t.tRRD, &t.tFAW, &t.tWR, &t.tWTR, &t.tRTP, &t.tREFI,
                  &t.tRFC, &t.tRFCpb})
    rd64(v);
  auto& e = cfg.energy;
  rdF(&e.actPreFullRow);
  rd64(&e.fullRowBytes);
  rdF(&e.rdwrPerBit);
  rdF(&e.ioPerBit);
  rdF(&e.latchPerUbankAccess);
  rdF(&e.staticPowerPerRankWatts);
  rdF(&e.refreshPerRank);
  if (!ok) {
    diags.report(traceDiag("MB-TRC-009", "truncated command-trace header", path));
    return std::nullopt;
  }

  for (;;) {
    std::uint8_t kind = 0;
    if (!readScalar(f, &kind)) break;  // clean end of file
    if (kind == static_cast<std::uint8_t>(CmdEventKind::EndOfRun)) {
      auto& tr = trace.trailer;
      bool trOk = readScalar(f, &tr.elapsed) && readScalar(f, &tr.actPre) &&
                  readScalar(f, &tr.rdwr) && readScalar(f, &tr.io) &&
                  readScalar(f, &tr.staticEnergy) && readScalar(f, &tr.activations) &&
                  readScalar(f, &tr.casOps) && readScalar(f, &tr.refreshes);
      if (!trOk) {
        diags.report(traceDiag("MB-TRC-009", "truncated command-trace trailer", path));
        return std::nullopt;
      }
      tr.present = true;
      // The trailer must be the last thing in the file.
      char extra = 0;
      if (std::fread(&extra, 1, 1, f) == 1) {
        diags.report(
            traceDiag("MB-TRC-012", "trailing data after command-trace trailer", path));
        return std::nullopt;
      }
      break;
    }
    if (kind > static_cast<std::uint8_t>(CmdEventKind::OraclePre)) {
      diags.report(traceDiag("MB-TRC-011", "unknown command-trace event kind", path)
                       .with("kind", static_cast<std::int64_t>(kind))
                       .with("event_index",
                             static_cast<std::int64_t>(trace.events.size())));
      return std::nullopt;
    }
    CmdEvent ev;
    ev.kind = static_cast<CmdEventKind>(kind);
    std::int16_t channel = 0, rank = 0, bank = 0, ubank = 0;
    const bool evOk = readScalar(f, &channel) && readScalar(f, &rank) &&
                      readScalar(f, &bank) && readScalar(f, &ubank) &&
                      readScalar(f, &ev.row) && readScalar(f, &ev.column) &&
                      readScalar(f, &ev.at) && readScalar(f, &ev.dataStart) &&
                      readScalar(f, &ev.dataEnd);
    if (!evOk) {
      // A trailing partial event means a truncated file: reject loudly
      // rather than silently auditing a corrupt tail.
      diags.report(traceDiag("MB-TRC-009", "truncated command-trace event", path)
                       .with("event_index",
                             static_cast<std::int64_t>(trace.events.size())));
      return std::nullopt;
    }
    ev.channel = channel;
    ev.rank = rank;
    ev.bank = bank;
    ev.ubank = ubank;
    trace.events.push_back(ev);
  }

  if (trace.events.empty()) {
    diags.report(
        traceDiag("MB-TRC-010", "command trace contains no events", path));
    return std::nullopt;
  }
  return trace;
}

}  // namespace mb::mc
