// Save/load symmetry & serialization-completeness static analysis
// (`mbstatic snap`).
//
// PR 4 gave every stateful component a save(ckpt::Writer&)/load(ckpt::Reader&)
// pair and the checkpoint work since then relies on the snapshot-compatibility
// rule (refactors keep MBCKPT1 bytes identical) — but nothing statically
// enforced it: add a member, forget to serialize it, and restore-vs-cold
// identity breaks only if some test happens to exercise that field. SnapLinter
// closes that gap the way DetLinter closes the determinism gap: an in-repo,
// dependency-free lexical pass (shared tokenizer: analysis/cxx_lexer.hpp),
// heuristic by design, with a mandatory-reason suppression trail.
//
// For every class with a save/load pair it extracts the *ordered stream* of
// Writer/Reader primitive calls (u8/b/u32/u64/i32/i64/f64/str/bytes, with
// Reader::count() normalizing to the u64 the writer emitted), nested
// sub-object save/load calls, save*/load* helper calls, and saveMapSorted
// expansions — then compares the two streams element-by-element. Registry
// (DESIGN.md §"Snapshot completeness analysis"):
//
//   MB-SNP-001  save/load streams asymmetric (order, type, or count)
//   MB-SNP-002  snapshot section name appears on only one side of
//               addSection(...) / loadSection(...)/.section(...)
//   MB-SNP-003  non-static data member mutated outside save/load/ctors but
//               never serialized and not declared MB_SNAP_TRANSIENT —
//               the "forgot to serialize the new field" bug
//   MB-SNP-004  format-fingerprint drift: a pair's save-stream fingerprint
//               differs from the committed baseline without a
//               kSnapshotVersion bump (--write-baseline regenerates)
//   MB-SNP-005  load path sizes a loop/container from a raw u32/u64 read
//               with no fail() guard in the body (use Reader::count())
//   MB-SNP-006  (warning) member rebuilt in load() but absent from save()
//               without an MB_SNAP_TRANSIENT declaration
//   MB-SNP-007  malformed annotation (missing reason, unknown code,
//               MB_SNAP_TRANSIENT naming no declared member)
//   MB-SNP-008  (warning) unused suppression, or MB_SNAP_TRANSIENT on a
//               member that save() actually writes
//
// Annotations are defined in common/ownership.hpp and recognized lexically
// in code or comments by the marker scanner and suppression matcher shared
// with det_lint (cxx_lexer.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cxx_lexer.hpp"
#include "analysis/diagnostic.hpp"

namespace mb::analysis {

struct SnapLintOptions {
  /// The MBCKPT1 container format version the scanned tree declares
  /// (ckpt::kSnapshotVersion). A fingerprint-baseline mismatch is only an
  /// error (MB-SNP-004) while the version matches the baseline's recorded
  /// version: bumping the version legitimizes the drift. Negative means
  /// "unknown" (no baseline semantics; 004 never fires).
  int snapshotVersion = -1;
  /// Contents of the committed fingerprint baseline (empty: no baseline,
  /// 004 reports every pair as unbaselined at Warning severity only when
  /// a baseline was supplied — so fresh checkouts without one stay quiet).
  std::string baselineContents;
  bool haveBaseline = false;
};

/// One matched (or half-matched) save/load pair and its canonical streams,
/// exposed for the fingerprint baseline and the tools' reporting.
struct SnapPair {
  std::string key;        // "Class::Suffix" ("Class" for the bare pair,
                          //  "::saveRng"-style "::Suffix" for free helpers)
  std::string saveFile;
  int saveLine = 0;
  std::string loadFile;
  int loadLine = 0;
  bool hasSave = false;
  bool hasLoad = false;
  std::string saveStream;  // canonical comma-joined op spelling
  std::string loadStream;
  std::uint64_t fingerprint = 0;  // FNV-1a64 of saveStream
};

class SnapLinter {
 public:
  explicit SnapLinter(DiagnosticEngine& engine, SnapLintOptions opts = {});

  /// Analyze the given files as one program. Diagnostics land in the engine
  /// sorted by (file, line, code).
  void run(const std::vector<SourceFile>& files);

  const std::vector<SnapPair>& pairs() const { return pairs_; }
  const std::vector<Suppression>& suppressions() const { return suppressions_; }

  /// Render the fingerprint baseline for --write-baseline: a version line
  /// followed by one `key fingerprint-hex` line per pair, sorted by key.
  std::string renderBaseline() const;

 private:
  DiagnosticEngine& engine_;
  SnapLintOptions opts_;
  std::vector<SnapPair> pairs_;
  std::vector<Suppression> suppressions_;
};

/// A fingerprint as the baseline and the JSON output spell it: 16
/// lower-case hex digits.
std::string hex16(std::uint64_t v);

/// Parse `kSnapshotVersion = N` out of the snapshot header's text; -1 when
/// absent (the tool feeds this into SnapLintOptions::snapshotVersion).
int parseSnapshotVersion(const std::string& headerText);

}  // namespace mb::analysis
