// Determinism & channel-ownership static analysis (`mbstatic det`).
//
// The channel-sharded engine (DESIGN.md §14) gives every memory
// channel its own event queue; a run stays reproducible only if no
// component's behaviour depends on hash-table order, pointer values,
// wall clocks, or hidden global state, and if every channel-local component
// touches cross-channel machinery solely through declared interfaces. The
// golden-identity corpus can prove a run *diverged*; this pass finds the
// latent sources *before* they diverge, the way mblint certifies configs
// and mbaudit certifies traces.
//
// DetLinter is an in-repo, dependency-free C++ source analyzer: a tokenizer
// plus lightweight scope tracking — no libclang, same spirit as the rest of
// the analysis layer. It is lexical by design; the diagnostics are
// heuristics with a suppression trail, not a type checker. Registry
// (DESIGN.md §"Determinism & ownership analysis"):
//
//   MB-DET-001  iteration over std::unordered_map/unordered_set (range-for
//               or .begin()/.cbegin()) — order depends on the hash table
//   MB-DET-002  pointer-valued container key, or a pointer laundered
//               through uintptr_t — order/value depends on ASLR
//   MB-DET-003  randomness / wall-clock source outside common/rng.hpp and
//               the wall-timing allowlist (rand, std::random_device,
//               std::mt19937, time, clock, std::chrono::*_clock, ...)
//   MB-DET-004  mutable static-local / namespace-scope / thread_local
//               state (non-const, non-constexpr)
//   MB-DET-005  floating-point accumulation (+=, -=) inside an
//               unordered-container loop — result depends on summation
//               order even if the set of terms does not
//   MB-DET-006  a type marked MB_CHANNEL_LOCAL references a type marked
//               MB_CROSS_CHANNEL without MB_CHANNEL_IFACE(Type)
//   MB-DET-007  malformed annotation (unknown code, missing reason, ...)
//   MB-DET-008  (warning) a suppression that matched no finding
//
// Annotations are defined in common/ownership.hpp. Type markers and
// MB_CHANNEL_IFACE are recognized in code (they are no-op macros);
// MB_DET_ALLOW / MB_DET_ALLOW_FILE are recognized in code or comments and
// suppress matching findings on the same or the following line (file-wide
// for the _FILE form), each with a mandatory reason. Marker scanning and
// suppression matching are shared with snap_lint (cxx_lexer.hpp).
#pragma once

#include <string>
#include <vector>

#include "analysis/cxx_lexer.hpp"
#include "analysis/diagnostic.hpp"

namespace mb::analysis {

/// The machine-checked ownership map: every annotated type and every
/// channel-local -> cross-channel type reference found in the tree.
struct OwnershipMap {
  struct Type {
    std::string name;
    bool crossChannel = false;
    std::string file;
    int line = 0;
    std::vector<std::string> interfaces;  // declared MB_CHANNEL_IFACE targets
  };
  struct Ref {
    std::string fromType;
    std::string toType;
    std::string file;
    int line = 0;
    bool declared = false;
  };
  std::vector<Type> types;
  std::vector<Ref> refs;

  int undeclared() const;
  /// {"types":[...],"references":[...],"undeclared":N}
  std::string json() const;
  std::string text() const;
};

class DetLinter {
 public:
  explicit DetLinter(DiagnosticEngine& engine) : engine_(engine) {}

  /// Analyze the given files as one program: per-file determinism checks,
  /// then the cross-file ownership pass. Diagnostics land in the engine
  /// sorted by (file, line, code).
  void run(const std::vector<SourceFile>& files);

  const OwnershipMap& ownership() const { return ownership_; }
  const std::vector<Suppression>& suppressions() const { return suppressions_; }

 private:
  DiagnosticEngine& engine_;
  OwnershipMap ownership_;
  std::vector<Suppression> suppressions_;
};

}  // namespace mb::analysis
