#include "analysis/cxx_lexer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace mb::analysis {

namespace cxx {

bool identStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool identChar(char c) { return identStart(c) || (c >= '0' && c <= '9'); }
bool isDigit(char c) { return c >= '0' && c <= '9'; }

namespace {

/// Two-character punctuators kept as one token. '<''<' and '>''>' are
/// deliberately NOT combined so template-argument depth counting sees every
/// angle bracket.
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

Lexed lex(const std::string& src) {
  Lexed out;
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
    // Comments (text retained for marker scanning). A backslash-newline
    // splices a // comment onto the next source line (phase-2 translation
    // runs before comment recognition), so the continuation text belongs
    // to the same comment — and must NOT lex as code.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const int startLine = line;
      std::string text;
      i += 2;
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n &&
            (src[i + 1] == '\n' ||
             (src[i + 1] == '\r' && i + 2 < n && src[i + 2] == '\n'))) {
          i += (src[i + 1] == '\n') ? 2 : 3;
          ++line;
          continue;
        }
        text += src[i++];
      }
      out.comments.push_back({std::move(text), startLine});
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int startLine = line;
      const std::size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      out.comments.push_back({src.substr(start, (i < n ? i : n) - start), startLine});
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
      out.toks.push_back({Token::Kind::Str, text, line});
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
      out.toks.push_back({Token::Kind::Str, text, line});
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
        out.toks.push_back({Token::Kind::Str, text, line});
        continue;
      }
      out.toks.push_back({Token::Kind::Ident, std::move(word), line});
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
      out.toks.push_back({Token::Kind::Num, src.substr(start, i - start), line});
      continue;
    }
    if (i + 1 < n && twoCharPunct(c, src[i + 1])) {
      out.toks.push_back({Token::Kind::Punct, src.substr(i, 2), line});
      i += 2;
      continue;
    }
    out.toks.push_back({Token::Kind::Punct, std::string(1, c), line});
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

std::size_t matchAngles(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (isP(t[j], "<")) ++depth;
    else if (isP(t[j], ">") && --depth == 0) return j;
    else if (isP(t[j], ";") || isP(t[j], "{") || isP(t[j], "}")) return kNpos;
  }
  return kNpos;
}

std::size_t skipToBody(const std::vector<Token>& t, std::size_t afterParams) {
  std::size_t j = afterParams;
  const std::size_t n = t.size();
  while (j < n && !isP(t[j], "{") && !isP(t[j], ";") && !isP(t[j], ":")) ++j;
  if (j >= n) return kNpos;
  if (!isP(t[j], ":")) return j;
  // Constructor-initializer list: items are name(...) or name{...},
  // comma-separated; the body's '{' follows the last item.
  ++j;
  while (j < n) {
    while (j < n && !isP(t[j], "(") && !isP(t[j], "{") && !isP(t[j], ";")) ++j;
    if (j >= n || isP(t[j], ";")) return kNpos;
    const bool paren = isP(t[j], "(");
    const std::size_t close = paren ? matchForward(t, j, "(", ")")
                                    : matchForward(t, j, "{", "}");
    if (close == kNpos) return kNpos;
    j = close + 1;
    if (j < n && isP(t[j], ",")) { ++j; continue; }
    return (j < n && isP(t[j], "{")) ? j : kNpos;
  }
  return kNpos;
}

}  // namespace cxx

std::vector<std::string> collectSourceFiles(
    const std::string& root, const std::vector<std::string>& subdirs,
    const std::vector<std::string>& excludeSuffixes) {
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
      std::string rel = fs::relative(it->path(), root, ec).generic_string();
      bool excluded = false;
      for (const std::string& skip : excludeSuffixes) {
        if (rel.size() >= skip.size() &&
            rel.compare(rel.size() - skip.size(), skip.size(), skip) == 0) {
          excluded = true;
          break;
        }
      }
      if (excluded) continue;
      out.push_back(std::move(rel));
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

// ---------------------------------------------------------------------------
// Annotation markers and suppressions.

namespace {

bool isBlank(char c) { return c == ' ' || c == '\t'; }

bool isMarkerName(const std::vector<std::string>& names, const std::string& word) {
  return std::find(names.begin(), names.end(), word) != names.end();
}

/// Comment-form markers: the argument list is parsed from the raw text.
void scanComment(const cxx::Comment& c, const std::vector<std::string>& names,
                 std::vector<Marker>& out) {
  const std::string& text = c.text;
  const std::size_t n = text.size();
  std::size_t pos = 0;
  while (pos < n) {
    if (!cxx::identChar(text[pos])) { ++pos; continue; }
    const std::size_t start = pos;
    while (pos < n && cxx::identChar(text[pos])) ++pos;
    std::string word = text.substr(start, pos - start);
    if (!isMarkerName(names, word)) continue;
    std::size_t j = pos;
    while (j < n && isBlank(text[j])) ++j;
    if (j >= n || text[j] != '(') continue;  // prose
    Marker m;
    m.name = std::move(word);
    m.line = c.line + static_cast<int>(std::count(
                          text.begin(), text.begin() + static_cast<std::ptrdiff_t>(start), '\n'));
    ++j;
    while (j < n && text[j] != ',' && text[j] != ')' && text[j] != '\n')
      m.first += text[j++];
    while (!m.first.empty() && isBlank(m.first.back())) m.first.pop_back();
    while (!m.first.empty() && isBlank(m.first.front())) m.first.erase(m.first.begin());
    if (j >= n || text[j] == '\n') {
      m.malformed = true;
    } else if (text[j] == ',') {
      ++j;
      while (j < n && isBlank(text[j])) ++j;
      if (j < n && text[j] == '"') {
        ++j;
        while (j < n && text[j] != '"' && text[j] != '\n') m.reason += text[j++];
        m.malformed = j >= n || text[j] != '"';
      } else {
        m.malformed = true;
      }
    }
    if (m.malformed) m.reason.clear();
    out.push_back(std::move(m));
    pos = j;
  }
}

/// Code-form markers: the first argument is its tokens concatenated (a
/// code like MB-DET-004 lexes as several), the reason one string literal.
void scanCode(const std::vector<cxx::Token>& t, const std::vector<std::string>& names,
              std::vector<Marker>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != cxx::Token::Kind::Ident || !isMarkerName(names, t[i].text) ||
        !cxx::isP(t[i + 1], "("))
      continue;
    Marker m;
    m.name = t[i].text;
    m.line = t[i].line;
    std::size_t j = i + 2;
    int depth = 1;
    bool sawComma = false;
    for (; j < t.size(); ++j) {
      if (cxx::isP(t[j], "(")) ++depth;
      else if (cxx::isP(t[j], ")")) {
        if (--depth == 0) break;
      } else if (depth == 1 && cxx::isP(t[j], ",")) { sawComma = true; ++j; break; }
      m.first += t[j].text;
    }
    if (sawComma) {
      if (j < t.size() && t[j].kind == cxx::Token::Kind::Str) m.reason = t[j].text;
      else m.malformed = true;
    }
    out.push_back(std::move(m));
  }
}

}  // namespace

std::vector<Marker> scanMarkers(const cxx::Lexed& lexed,
                                const std::vector<std::string>& names) {
  std::vector<Marker> out;
  for (const cxx::Comment& c : lexed.comments) scanComment(c, names, out);
  scanCode(lexed.toks, names, out);
  return out;
}

bool hasCodeShape(const std::string& code, const std::string& prefix) {
  const std::size_t p = prefix.size();
  return code.size() == p + 3 && code.compare(0, p, prefix) == 0 &&
         cxx::isDigit(code[p]) && cxx::isDigit(code[p + 1]) && cxx::isDigit(code[p + 2]);
}

std::vector<Diagnostic> reportFindings(
    DiagnosticEngine& engine, std::vector<Diagnostic> findings,
    std::vector<Suppression>& suppressions, const char* unusedCode,
    std::string (*unusedMessage)(const std::string& code)) {
  std::vector<Diagnostic> suppressed;
  for (Diagnostic& d : findings) {
    const auto covering = std::find_if(
        suppressions.begin(), suppressions.end(), [&](const Suppression& s) {
          return s.code == d.code && s.file == d.where.file &&
                 (s.fileScope || d.where.line == s.line || d.where.line == s.line + 1);
        });
    if (covering == suppressions.end()) {
      engine.report(std::move(d));
      continue;
    }
    ++covering->uses;
    suppressed.push_back(std::move(d));
  }
  for (const Suppression& s : suppressions) {
    if (s.uses > 0) continue;
    Diagnostic d(unusedCode, Severity::Warning, unusedMessage(s.code));
    d.where = SourceLocation{s.file, s.line};
    d.with("reason", s.reason);
    engine.report(std::move(d));
  }
  engine.sortByLocation();
  return suppressed;
}

}  // namespace mb::analysis
