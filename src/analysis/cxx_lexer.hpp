// Dependency-free lexical C++ front end shared by the source-level static
// analyses (det_lint and snap_lint, run by `mbstatic det` / `mbstatic snap`).
//
// This is a tokenizer plus bracket-matching scope helpers — deliberately
// not a parser and not libclang: the analyses built on it are heuristic
// lints with suppression trails, and an in-repo lexer keeps them free of
// toolchain dependencies and byte-stable across hosts. Comments, string
// and character literals and preprocessor lines are stripped from the
// token stream; comment text is retained (with its start line) because
// suppression markers are legal inside comments.
//
// Conformance corners the analyses rely on (pinned by
// tests/analysis/cxx_lexer_test.cpp):
//   - raw string literals R"delim(...)delim" (with encoding prefixes up to
//     three chars, e.g. u8R) lex as one Str token, newlines counted;
//   - digit separators (1'000'000) stay inside one Num token and are not
//     confused with character literals;
//   - backslash-newline splices continue a // comment onto the next
//     source line, exactly as phase-2 translation does;
//   - '<' '>' are never combined into shift tokens, so template-argument
//     depth counting sees every angle bracket.
//
// Both analyses also share their annotation handling here: one scanner for
// `NAME(first, "reason")` markers written as code or inside comments, and
// one suppression matcher with one unused-suppression rule.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"

namespace mb::analysis {

namespace cxx {

struct Token {
  enum class Kind { Ident, Num, Punct, Str };
  Kind kind = Kind::Punct;
  std::string text;
  int line = 1;
};

struct Comment {
  std::string text;
  int line = 1;  // line the comment starts on
};

struct Lexed {
  std::vector<Token> toks;
  std::vector<Comment> comments;
};

bool identStart(char c);
bool identChar(char c);
bool isDigit(char c);

/// Tokenize one translation unit's worth of source text.
Lexed lex(const std::string& src);

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Punctuator / identifier token tests.
bool isP(const Token& t, const char* text);
bool isI(const Token& t, const char* text);

/// Index of the matching close for the open bracket at `i`, or kNpos.
std::size_t matchForward(const std::vector<Token>& t, std::size_t i,
                         const char* open, const char* close);

/// Matching '>' for the '<' at `i`; bails (kNpos) at ';' '{' '}' so a stray
/// less-than comparison cannot swallow the rest of the file.
std::size_t matchAngles(const std::vector<Token>& t, std::size_t i);

/// After a member definition's parameter list: skip qualifiers and the
/// constructor-initializer list, returning the index of the body's '{' (or
/// of the terminating ';' for a pure declaration), kNpos on parse failure.
std::size_t skipToBody(const std::vector<Token>& t, std::size_t afterParams);

}  // namespace cxx

/// All .hpp/.cpp files under root/<sub> for each subdirectory, as
/// root-relative paths in lexicographic order (deterministic walk). Paths
/// whose root-relative form ends in one of `excludeSuffixes` are skipped
/// (each analysis excludes its own annotation-vocabulary header, which
/// would otherwise only report its own documentation).
std::vector<std::string> collectSourceFiles(
    const std::string& root, const std::vector<std::string>& subdirs,
    const std::vector<std::string>& excludeSuffixes = {});

/// Read a file into memory; returns false (and empties out) on failure.
bool readFileToString(const std::string& path, std::string* out);

/// One analyzed source file, path as it should appear in diagnostics.
struct SourceFile {
  std::string path;
  std::string contents;
};

/// One `NAME(first, "reason")` annotation marker (common/ownership.hpp),
/// written as code or inside a comment.
struct Marker {
  std::string name;    // the marker name as written
  std::string first;   // first argument: a registry code or a member name
  std::string reason;  // empty when missing or when the marker is malformed
  bool malformed = false;  // '(' opened but the arguments did not parse
  int line = 1;
};

/// Every marker in `lexed` whose name is one of `names`: comment-form ones
/// first, then code-form ones, each in source order. A name not followed by
/// '(' is prose and skipped. The parse is strict: a first argument cut off
/// by the end of the line, a second argument that is not a string literal,
/// or a reason without its closing quote makes the marker malformed.
std::vector<Marker> scanMarkers(const cxx::Lexed& lexed,
                                const std::vector<std::string>& names);

/// True when `code` is `prefix` followed by three digits ("MB-DET-004").
bool hasCodeShape(const std::string& code, const std::string& prefix);

/// A well-formed allow marker, kept for the audit trail.
struct Suppression {
  std::string code;
  std::string reason;
  std::string file;
  int line = 0;
  bool fileScope = false;
  int uses = 0;  // findings suppressed by this entry
};

/// The suppression matcher both analyses share. A suppression covers a
/// finding with its code in its file on the marker's line or the next one,
/// or anywhere in the file when fileScope; the first covering entry counts
/// the use. Every uncovered finding is reported to `engine`, then one
/// `unusedCode` warning per suppression that covered nothing (message
/// `unusedMessage(code)`, the reason as context), and the engine is sorted
/// by location. Returns the findings that were suppressed.
std::vector<Diagnostic> reportFindings(
    DiagnosticEngine& engine, std::vector<Diagnostic> findings,
    std::vector<Suppression>& suppressions, const char* unusedCode,
    std::string (*unusedMessage)(const std::string& code));

}  // namespace mb::analysis
