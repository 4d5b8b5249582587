#include "analysis/cxx_lexer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace mb::analysis {

namespace cxx {

namespace {

bool identStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool identChar(char c) { return identStart(c) || (c >= '0' && c <= '9'); }
bool isDigit(char c) { return c >= '0' && c <= '9'; }

/// Two-character punctuators kept as one token.
bool twoCharPunct(char a, char b) {
  switch (a) {
    case ':': return b == ':';
    case '-': return b == '>' || b == '=' || b == '-';
    case '+': return b == '=' || b == '+';
    case '*': case '/': case '=': case '!': case '<': case '>':
      return b == '=';
    case '&': return b == '&';
    case '|': return b == '|';
    default: return false;
  }
}

}  // namespace

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool atLineStart = true;
  while (i < n) {
    const char c = src[i];
    if (c == '\n') { ++line; ++i; atLineStart = true; continue; }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') { ++i; continue; }
    // Preprocessor directive: skip the whole logical line (honouring
    // backslash continuations). Directives never carry findings.
    if (atLineStart && c == '#') {
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') { ++line; i += 2; continue; }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    atLineStart = false;
    // Comments. A backslash-newline splices a // comment onto the next
    // source line (phase-2 translation runs before comment recognition),
    // so the continuation text belongs to the same comment — and must NOT
    // lex as code.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      i += 2;
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n &&
            (src[i + 1] == '\n' ||
             (src[i + 1] == '\r' && i + 2 < n && src[i + 2] == '\n'))) {
          i += (src[i + 1] == '\n') ? 2 : 3;
          ++line;
          continue;
        }
        ++i;
      }
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    // String literal (with a basic raw-string path below, via the
    // identifier branch for prefixed forms).
    if (c == '"') {
      std::string text;
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < n) { text += src[i]; text += src[i + 1]; i += 2; continue; }
        if (src[i] == '\n') ++line;
        text += src[i++];
      }
      ++i;
      out.push_back({Token::Kind::Str, text, line});
      continue;
    }
    if (c == '\'') {
      std::string text;
      ++i;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\' && i + 1 < n) { i += 2; continue; }
        if (src[i] == '\n') ++line;
        text += src[i++];
      }
      ++i;
      out.push_back({Token::Kind::Str, text, line});
      continue;
    }
    if (identStart(c)) {
      const std::size_t start = i;
      while (i < n && identChar(src[i])) ++i;
      std::string word = src.substr(start, i - start);
      // Raw string literal: an encoding prefix ending in R glued to '"'.
      if (i < n && src[i] == '"' && word.size() <= 3 && word.back() == 'R') {
        std::string delim;
        ++i;
        while (i < n && src[i] != '(') delim += src[i++];
        const std::string close = ")" + delim + "\"";
        const std::size_t end = src.find(close, i);
        std::string text = src.substr(i + 1, (end == std::string::npos ? n : end) - i - 1);
        for (const char tc : text)
          if (tc == '\n') ++line;
        i = (end == std::string::npos) ? n : end + close.size();
        out.push_back({Token::Kind::Str, text, line});
        continue;
      }
      out.push_back({Token::Kind::Ident, std::move(word), line});
      continue;
    }
    if (isDigit(c)) {
      const std::size_t start = i;
      while (i < n) {
        const char d = src[i];
        if (identChar(d) || d == '.' || d == '\'') { ++i; continue; }
        if ((d == '+' || d == '-') && i > start) {
          const char p = src[i - 1];
          if (p == 'e' || p == 'E' || p == 'p' || p == 'P') { ++i; continue; }
        }
        break;
      }
      out.push_back({Token::Kind::Num, src.substr(start, i - start), line});
      continue;
    }
    if (i + 1 < n && twoCharPunct(c, src[i + 1])) {
      out.push_back({Token::Kind::Punct, src.substr(i, 2), line});
      i += 2;
      continue;
    }
    out.push_back({Token::Kind::Punct, std::string(1, c), line});
    ++i;
  }
  return out;
}

bool isP(const Token& t, const char* text) {
  return t.kind == Token::Kind::Punct && t.text == text;
}
bool isI(const Token& t, const char* text) {
  return t.kind == Token::Kind::Ident && t.text == text;
}

std::size_t matchForward(const std::vector<Token>& t, std::size_t i,
                         const char* open, const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (isP(t[j], open)) ++depth;
    else if (isP(t[j], close) && --depth == 0) return j;
  }
  return kNpos;
}

std::size_t skipToBody(const std::vector<Token>& t, std::size_t afterParams) {
  for (std::size_t j = afterParams; j < t.size(); ++j)
    if (isP(t[j], "{") || isP(t[j], ";")) return j;
  return kNpos;
}

}  // namespace cxx

std::vector<std::string> collectSourceFiles(const std::string& root,
                                            const std::vector<std::string>& subdirs) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      out.push_back(fs::relative(it->path(), root, ec).generic_string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool readFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out->clear();
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace mb::analysis
