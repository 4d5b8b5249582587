#include "ckpt/snapshot.hpp"

#include <cstdio>
#include <cstring>

namespace mb::ckpt {

analysis::Diagnostic ckptDiag(const char* code, const std::string& message,
                              const std::string& label) {
  analysis::Diagnostic d(code, analysis::Severity::Error, message);
  d.with("snapshot", label);
  return d;
}

const SnapshotSection* Snapshot::section(const std::string& name) const {
  for (const auto& s : sections)
    if (s.name == name) return &s;
  return nullptr;
}

void Snapshot::addSection(std::string name, std::string payload) {
  sections.push_back({std::move(name), std::move(payload)});
}

std::string Snapshot::encode() const {
  // The whole frame is sized up front, so the writer's buffer is allocated
  // once and becomes the result, trailer included, without a copy.
  std::size_t frameBytes = sizeof(kSnapshotMagic) + 4 + 4 + 8 + 8 + 8 + 5 * 4 +
                           (4 + tool.size()) + (4 + workload.size()) + 4 + 4;
  for (const auto& s : sections) frameBytes += 4 + s.name.size() + 8 + 4 + s.payload.size();
  Writer w;
  w.reserve(frameBytes);
  w.bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.u32(kSnapshotVersion);
  w.u32(static_cast<std::uint32_t>(kind));
  w.u64(configHash);
  w.u64(warmupKey);
  w.i64(now);
  w.i32(geometry.channels);
  w.i32(geometry.ranksPerChannel);
  w.i32(geometry.banksPerRank);
  w.i32(geometry.nW);
  w.i32(geometry.nB);
  w.str(tool);
  w.str(workload);
  w.u32(static_cast<std::uint32_t>(sections.size()));
  // The file CRC of the first `covered` bytes written. Each payload joins
  // it through its section CRC, so every byte is checksummed once.
  std::uint32_t fileCrc = 0;
  std::size_t covered = 0;
  const auto coverWritten = [&] {
    fileCrc = crc32(w.str().data() + covered, w.size() - covered, fileCrc);
    covered = w.size();
  };
  for (const auto& s : sections) {
    w.str(s.name);
    w.u64(s.payload.size());
    const std::uint32_t payloadCrc = crc32(s.payload);
    w.u32(payloadCrc);
    coverWritten();
    w.bytes(s.payload.data(), s.payload.size());
    fileCrc = crc32Combine(fileCrc, payloadCrc, s.payload.size());
    covered = w.size();
  }
  coverWritten();
  w.u32(fileCrc);
  return w.take();
}

std::optional<Snapshot> decodeSnapshot(std::string_view data,
                                       analysis::DiagnosticEngine& diags,
                                       const std::string& label) {
  // The framing is checked as it is read (truncation, then each section's
  // CRC, then trailing bytes) and the file trailer last, so a damaged
  // section is named. Each byte is checksummed once: the file CRC is built
  // from the framing bytes and each section's verified CRC.
  if (data.size() < sizeof(kSnapshotMagic) + 4) {
    diags.report(ckptDiag("MB-CKP-006", "truncated snapshot (shorter than header)",
                          label));
    return std::nullopt;
  }
  if (std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    diags.report(
        ckptDiag("MB-CKP-002", "not an MBCKPT1 snapshot (bad magic)", label));
    return std::nullopt;
  }
  const std::string_view body = data.substr(0, data.size() - 4);
  Reader trailer(data.substr(data.size() - 4));
  const std::uint32_t storedFileCrc = trailer.u32();

  Reader r(body);
  r.view(sizeof(kSnapshotMagic));
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion) {
    diags.report(ckptDiag("MB-CKP-003", "unsupported snapshot version", label)
                     .with("version", static_cast<std::int64_t>(version))
                     .with("supported", static_cast<std::int64_t>(kSnapshotVersion)));
    return std::nullopt;
  }

  Snapshot snap;
  const std::uint32_t kindRaw = r.u32();
  snap.configHash = r.u64();
  snap.warmupKey = r.u64();
  snap.now = r.i64();
  snap.geometry.channels = r.i32();
  snap.geometry.ranksPerChannel = r.i32();
  snap.geometry.banksPerRank = r.i32();
  snap.geometry.nW = r.i32();
  snap.geometry.nB = r.i32();
  snap.tool = r.str();
  snap.workload = r.str();
  const std::uint32_t sectionCount = r.u32();
  if (!r.ok()) {
    diags.report(ckptDiag("MB-CKP-006", "truncated snapshot header", label));
    return std::nullopt;
  }
  if (kindRaw > static_cast<std::uint32_t>(SnapshotKind::FullRun)) {
    diags.report(ckptDiag("MB-CKP-005", "unknown snapshot kind", label)
                     .with("kind", static_cast<std::int64_t>(kindRaw)));
    return std::nullopt;
  }
  snap.kind = static_cast<SnapshotKind>(kindRaw);

  // The file CRC of body[0, covered), extended as the frame is read.
  std::uint32_t fileCrc = 0;
  std::size_t covered = 0;
  const auto coverTo = [&](std::size_t end) {
    fileCrc = crc32(body.data() + covered, end - covered, fileCrc);
    covered = end;
  };
  for (std::uint32_t i = 0; i < sectionCount; ++i) {
    SnapshotSection s;
    s.name = r.str();
    const std::uint64_t len = r.u64();
    const std::uint32_t storedCrc = r.u32();
    if (!r.ok() || len > r.remaining()) {
      diags.report(ckptDiag("MB-CKP-006", "truncated snapshot section", label)
                       .with("section", s.name));
      return std::nullopt;
    }
    coverTo(body.size() - r.remaining());
    const std::string_view payload = r.view(static_cast<std::size_t>(len));
    if (crc32(payload) != storedCrc) {
      diags.report(ckptDiag("MB-CKP-007", "snapshot section CRC mismatch", label)
                       .with("section", s.name));
      return std::nullopt;
    }
    fileCrc = crc32Combine(fileCrc, storedCrc, payload.size());
    covered += payload.size();
    s.payload.assign(payload);
    snap.sections.push_back(std::move(s));
  }
  if (!r.atEnd()) {
    diags.report(
        ckptDiag("MB-CKP-011", "trailing bytes after snapshot sections", label));
    return std::nullopt;
  }
  coverTo(body.size());
  if (storedFileCrc != fileCrc) {
    diags.report(ckptDiag("MB-CKP-008", "snapshot file CRC mismatch", label));
    return std::nullopt;
  }
  return snap;
}

std::optional<Snapshot> readSnapshotFile(const std::string& path,
                                         analysis::DiagnosticEngine& diags) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    diags.report(ckptDiag("MB-CKP-001", "cannot open snapshot file", path));
    return std::nullopt;
  }
  std::string data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool readError = std::ferror(f) != 0;
  std::fclose(f);
  if (readError) {
    diags.report(ckptDiag("MB-CKP-001", "error reading snapshot file", path));
    return std::nullopt;
  }
  return decodeSnapshot(data, diags, path);
}

bool writeSnapshotFile(const Snapshot& snap, const std::string& path,
                       analysis::DiagnosticEngine& diags) {
  const std::string data = snap.encode();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    diags.report(ckptDiag("MB-CKP-001", "cannot open snapshot file for writing", path));
    return false;
  }
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    diags.report(ckptDiag("MB-CKP-001", "error writing snapshot file", path));
    return false;
  }
  return true;
}

}  // namespace mb::ckpt
