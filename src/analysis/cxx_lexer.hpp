// Dependency-free lexical C++ front end for the source-level snapshot lint
// (snap_lint, run by `mbstatic`).
//
// This is a tokenizer plus bracket-matching helpers — deliberately not a
// parser and not libclang: the lint built on it is a heuristic, and an
// in-repo lexer keeps it free of toolchain dependencies and byte-stable
// across hosts. Comments, string and character literals and preprocessor
// lines never reach the token stream as code.
//
// Conformance corners the lint relies on (pinned by
// tests/analysis/cxx_lexer_test.cpp):
//   - raw string literals R"delim(...)delim" (with encoding prefixes up to
//     three chars, e.g. u8R) lex as one Str token, newlines counted;
//   - digit separators (1'000'000) stay inside one Num token and are not
//     confused with character literals;
//   - backslash-newline splices continue a // comment onto the next
//     source line, exactly as phase-2 translation does.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mb::analysis {

namespace cxx {

struct Token {
  enum class Kind { Ident, Num, Punct, Str };
  Kind kind = Kind::Punct;
  std::string text;
  int line = 1;
};

/// Tokenize one translation unit's worth of source text.
std::vector<Token> lex(const std::string& src);

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Punctuator / identifier token tests.
bool isP(const Token& t, const char* text);
bool isI(const Token& t, const char* text);

/// Index of the matching close for the open bracket at `i`, or kNpos.
std::size_t matchForward(const std::vector<Token>& t, std::size_t i,
                         const char* open, const char* close);

/// After a function's parameter list: skip its qualifiers, returning the
/// index of the body's '{' (or of the ';' ending a declaration), kNpos when
/// there is neither. Constructor-initializer lists are not parsed: the
/// lint only looks at load functions.
std::size_t skipToBody(const std::vector<Token>& t, std::size_t afterParams);

}  // namespace cxx

/// All .hpp/.cpp files under root/<sub> for each subdirectory, as
/// root-relative paths in lexicographic order (deterministic walk).
std::vector<std::string> collectSourceFiles(const std::string& root,
                                            const std::vector<std::string>& subdirs);

/// Read a file into memory; returns false (and empties out) on failure.
bool readFileToString(const std::string& path, std::string* out);

/// One analyzed source file, path as it should appear in diagnostics.
struct SourceFile {
  std::string path;
  std::string contents;
};

}  // namespace mb::analysis
