// Structured diagnostics for the static-analysis / protocol-conformance
// layer.
//
// Every reportable condition in the simulator — a statically rejected
// configuration, a DRAM protocol-timing violation, an internal invariant
// breach — is expressed as a Diagnostic: a stable machine-readable code
// (e.g. "MB-AUD-012"), a severity, a one-line message, and an ordered list
// of key/value context entries (the offending
// command, the per-μbank shadow history, the violated constraint, ...).
// Diagnostics render to human text and to machine-readable JSON so that CI
// and downstream tooling can consume them without parsing free-form stderr.
//
// The DiagnosticEngine collects diagnostics from any number of producers
// (ConfigLinter rules, the mc::TraceAuditor, future analyses). Producers
// never decide process fate; the consumer inspects severities and chooses
// to abort, reject a config, or keep collecting. The registry of assigned
// codes lives in DESIGN.md ("Static analysis & diagnostics").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>


namespace mb::analysis {

enum class Severity {
  Note,     // informational, never affects exit status
  Warning,  // suspicious but runnable
  Error,    // configuration / protocol violation: must be rejected
  Fatal,    // internal invariant breach: state is unusable
};

const char* severityName(Severity s);

/// One structured finding. Context entries are ordered (insertion order is
/// preserved in both renderers) so the most important fields read first.
struct Diagnostic {
  std::string code;     // stable registry code, e.g. "MB-CFG-001"
  Severity severity = Severity::Error;
  std::string message;  // one line, no trailing newline
  std::vector<std::pair<std::string, std::string>> context;

  Diagnostic() = default;
  Diagnostic(std::string code_, Severity sev, std::string message_)
      : code(std::move(code_)), severity(sev), message(std::move(message_)) {}

  /// Append one context entry; returns *this for chaining.
  Diagnostic& with(std::string key, std::string value);
  Diagnostic& with(std::string key, std::int64_t value);
  Diagnostic& with(std::string key, double value);

  /// "error MB-AUD-012: ... tRCD (ACT->CAS)\n  event: RD\n  ..."
  std::string text() const;
  /// One JSON object: {"code":...,"severity":...,"message":...,
  /// "context":{...}}.
  std::string json() const;
};

/// Escape a string for embedding inside a JSON string literal (quotes are
/// added by the caller). Handles quotes, backslashes and control bytes, and
/// renders all non-ASCII input as \uXXXX escapes: well-formed UTF-8
/// sequences become their code points (surrogate pairs beyond the BMP),
/// malformed bytes become U+FFFD. The output is therefore pure printable
/// ASCII — byte-stable across locales and safe to diff in CI.
std::string jsonEscape(const std::string& s);

/// Collector shared by all analysis producers. Cheap to construct; not
/// thread-safe (one engine per simulation / lint invocation).
class DiagnosticEngine {
 public:
  /// Record one diagnostic. The stored list is capped at `maxStored` (the
  /// per-severity counters keep exact totals beyond the cap, so a runaway
  /// producer cannot exhaust memory while the caller still sees the count).
  void report(Diagnostic d);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::int64_t count(Severity s) const { return counts_[static_cast<int>(s)]; }
  std::int64_t total() const;
  bool hasErrors() const {
    return count(Severity::Error) > 0 || count(Severity::Fatal) > 0;
  }
  bool empty() const { return total() == 0; }
  void clear();

  /// All stored diagnostics as human text, one block per diagnostic.
  std::string renderText() const;
  /// All stored diagnostics as one JSON array.
  std::string renderJson() const;

  /// Optional immediate sink, invoked on every report() before storage —
  /// lets a CLI stream diagnostics as they are found.
  std::function<void(const Diagnostic&)> onReport;

  /// Storage cap (see report()).
  std::size_t maxStored = 1024;

 private:
  std::vector<Diagnostic> diags_;
  std::int64_t counts_[4] = {0, 0, 0, 0};
};

}  // namespace mb::analysis
