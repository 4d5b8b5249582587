// MBCKPT1 — the versioned snapshot container for checkpoint/restore.
//
// Layout (little-endian throughout, mirroring MBTRACE1 / MBCMDT1):
//
//   magic    8 bytes "MBCKPT1\0"
//   u32      format version (kSnapshotVersion, 2)
//   u32      kind: 0 = warmup snapshot (cache/directory/trace state only,
//                      reusable across memory-side configs),
//            1 = full-run checkpoint (every component + pending events)
//   u64      config hash   — FNV-1a over the canonically encoded resolved
//                            SystemConfig + workload; 0 for warmup kind
//   u64      warmup key    — FNV-1a over the warmup-relevant subset
//                            (workload, seed, core count, cache config,
//                            warmup length); 0 for full-run kind
//   i64      sim time (ps) at capture
//   5 × i32  geometry echo: channels, ranks, banks, nW, nB (0 for warmup)
//   str      producing tool + version ("microbank x.y.z")
//   str      workload name
//   u32      section count
//   per section:
//     str    name ("META", "TRACE", "CORES", "HIER", "MC0", ...)
//     u64    payload length
//     u32    CRC-32 of the payload
//     bytes  payload
//   u32      CRC-32 of everything above (the file trailer); encode and
//            decode build it from the framing bytes and each section's
//            CRC (crc32Combine), so each payload is checksummed once
//
// readSnapshot rejects malformed or mismatched input with stable MB-CKP
// diagnostics (registered in DESIGN.md next to MB-TRC / MB-AUD):
//   MB-CKP-001  cannot open / read snapshot file
//   MB-CKP-002  bad magic (not an MBCKPT1 snapshot)
//   MB-CKP-003  unsupported format version
//   MB-CKP-004  config hash mismatch (snapshot belongs to another config)
//   MB-CKP-005  snapshot kind / warmup key mismatch
//   MB-CKP-006  truncated snapshot
//   MB-CKP-007  section CRC mismatch
//   MB-CKP-008  file CRC trailer mismatch
//   MB-CKP-009  geometry mismatch
//   MB-CKP-010  missing required section
//   MB-CKP-011  trailing bytes after trailer
//   MB-CKP-012  malformed section payload
//
// The container layer (this file) owns 001..003 and 006..008, 011; the
// restore orchestrator in sim/system.cpp owns the semantic checks
// (004/005/009/010/012) because only it knows the config being restored
// into.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "ckpt/serialize.hpp"
#include "common/types.hpp"

namespace mb::ckpt {

inline constexpr char kSnapshotMagic[8] = {'M', 'B', 'C', 'K', 'P', 'T', '1', '\0'};
inline constexpr std::uint32_t kSnapshotVersion = 2;

enum class SnapshotKind : std::uint32_t { Warmup = 0, FullRun = 1 };

/// Geometry echo carried by full-run snapshots; all zero for warmup kind.
struct SnapshotGeometry {
  std::int32_t channels = 0;
  std::int32_t ranksPerChannel = 0;
  std::int32_t banksPerRank = 0;
  std::int32_t nW = 0;
  std::int32_t nB = 0;

  bool operator==(const SnapshotGeometry&) const = default;
};

struct SnapshotSection {
  std::string name;
  std::string payload;
};

struct Snapshot {
  SnapshotKind kind = SnapshotKind::FullRun;
  std::uint64_t configHash = 0;
  std::uint64_t warmupKey = 0;
  Tick now = 0;
  SnapshotGeometry geometry;
  std::string tool;      // producing tool + version string
  std::string workload;  // workload name, informational
  std::vector<SnapshotSection> sections;

  /// nullptr when the section is absent.
  const SnapshotSection* section(const std::string& name) const;
  void addSection(std::string name, std::string payload);

  /// Serialize to the MBCKPT1 byte layout above.
  std::string encode() const;
};

/// Decode a snapshot from an in-memory buffer. On failure returns nullopt
/// after reporting MB-CKP diagnostics to `diags`; `label` names the source
/// in the diagnostics (a path, or "<memory>").
std::optional<Snapshot> decodeSnapshot(std::string_view data,
                                       analysis::DiagnosticEngine& diags,
                                       const std::string& label = "<memory>");

/// Read + decode a snapshot file (MB-CKP-001 when unreadable).
std::optional<Snapshot> readSnapshotFile(const std::string& path,
                                         analysis::DiagnosticEngine& diags);

/// Write `snap` to `path`; returns false (with MB-CKP-001) on I/O failure.
bool writeSnapshotFile(const Snapshot& snap, const std::string& path,
                       analysis::DiagnosticEngine& diags);

/// Shared helper for the orchestrator's semantic checks.
analysis::Diagnostic ckptDiag(const char* code, const std::string& message,
                              const std::string& label);

}  // namespace mb::ckpt
