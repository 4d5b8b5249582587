// Minimal JSON value + recursive-descent parser.
//
// Parses the subset the repo's own tools emit (objects, arrays, strings,
// numbers, booleans, null) — RunResult reports (sim/journal.hpp, the
// mbserve result cache) and the --json output of mblint/mbdetcheck/mbsnapcheck. Tolerant of unknown keys so formats can
// grow fields without breaking old readers. Factored out of sim/journal.cpp
// so tests can round-trip every tool's diagnostic JSON through one reader
// (tests/analysis/diag_json_schema_test.cpp pins the shared schema).
//
// Deliberately not a general JSON library: no streaming, no write side
// (each emitter builds its own strings so the bytes stay under the tool's
// control). \uXXXX escapes — including surrogate pairs — decode to UTF-8,
// since the tools' jsonEscape emits codepoint escapes for any non-ASCII
// byte sequence (e.g. μ for the micro sign in mblint messages).
//
// Hostile-input mode: the serving layer (src/serve) parses job specs from
// untrusted clients, so JParseOptions adds two opt-in strictness knobs —
// a nesting-depth cap (a deeply nested spec must be a structured rejection,
// not a recursion-death) and duplicate-key rejection (a spec that names a
// key twice is ambiguous; silently keeping either copy is wrong). When a
// strict parse fails, error() carries a one-line reason the caller can wrap
// in its own diagnostic (serve maps these to MB-SRV-002/003).
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace mb::json {

struct JVal {
  enum class T { Null, Bool, Int, Dbl, Str, Arr, Obj };
  T t = T::Null;
  bool b = false;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;

  const JVal* get(const char* key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
  // The parser fills `d` for Int tokens too (via strtod), so this is exact
  // for every numeric token, -0 included.
  double num() const { return d; }
};

/// Opt-in strictness for hostile input. Defaults preserve the tolerant
/// behavior every existing caller (RunResult decoding, diag-JSON tests) relies
/// on: unlimited depth, last-key-wins duplicates.
struct JParseOptions {
  /// Maximum object/array nesting depth; 0 = unlimited.
  int maxDepth = 0;
  /// Reject an object that repeats a key instead of keeping both entries.
  bool rejectDuplicateKeys = false;
};

class JParser {
 public:
  explicit JParser(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}
  JParser(const std::string& text, const JParseOptions& opts)
      : p_(text.c_str()), end_(text.c_str() + text.size()), opts_(opts) {}

  bool parse(JVal* out) {
    skipWs();
    if (!value(out)) return false;
    skipWs();
    return p_ == end_;
  }

  /// One-line reason when a strictness rule (depth cap, duplicate key)
  /// failed the parse; empty for plain syntax errors.
  const std::string& error() const { return error_; }

 private:
  void skipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }
  bool lit(const char* s, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n || std::memcmp(p_, s, n) != 0)
      return false;
    p_ += n;
    return true;
  }

  bool value(JVal* out) {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out->t = JVal::T::Str; return string(&out->s);
      case 't': out->t = JVal::T::Bool; out->b = true; return lit("true", 4);
      case 'f': out->t = JVal::T::Bool; out->b = false; return lit("false", 5);
      case 'n': out->t = JVal::T::Null; return lit("null", 4);
      default: return number(out);
    }
  }

  bool enter() {
    ++depth_;
    if (opts_.maxDepth > 0 && depth_ > opts_.maxDepth) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "nesting depth exceeds %d", opts_.maxDepth);
      if (error_.empty()) error_ = buf;
      return false;
    }
    return true;
  }

  bool object(JVal* out) {
    out->t = JVal::T::Obj;
    if (!enter()) return false;
    ++p_;  // '{'
    skipWs();
    if (p_ != end_ && *p_ == '}') { ++p_; --depth_; return true; }
    for (;;) {
      skipWs();
      std::string key;
      if (p_ == end_ || *p_ != '"' || !string(&key)) return false;
      if (opts_.rejectDuplicateKeys) {
        for (const auto& [k, v] : out->obj) {
          if (k != key) continue;
          if (error_.empty()) error_ = "duplicate key \"" + key + "\"";
          return false;
        }
      }
      skipWs();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      skipWs();
      JVal v;
      if (!value(&v)) return false;
      out->obj.emplace_back(std::move(key), std::move(v));
      skipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == '}') { ++p_; --depth_; return true; }
      return false;
    }
  }

  bool array(JVal* out) {
    out->t = JVal::T::Arr;
    if (!enter()) return false;
    ++p_;  // '['
    skipWs();
    if (p_ != end_ && *p_ == ']') { ++p_; --depth_; return true; }
    for (;;) {
      skipWs();
      JVal v;
      if (!value(&v)) return false;
      out->arr.push_back(std::move(v));
      skipWs();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == ']') { ++p_; --depth_; return true; }
      return false;
    }
  }

  // p_ points at the 'u' of a \uXXXX escape; reads the 4 hex digits into
  // *cp and leaves p_ on the last digit (the caller's ++p_ steps past it).
  bool hex4(long* cp) {
    if (end_ - p_ < 5) return false;
    for (int k = 1; k <= 4; ++k)
      if (std::isxdigit(static_cast<unsigned char>(p_[k])) == 0) return false;
    char hex[5] = {p_[1], p_[2], p_[3], p_[4], 0};
    *cp = std::strtol(hex, nullptr, 16);
    p_ += 4;
    return true;
  }

  static void appendUtf8(std::string* out, std::uint32_t cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool string(std::string* out) {
    ++p_;  // opening quote
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            long cp = 0;
            if (!hex4(&cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must pair with \uDC00..\uDFFF.
              if (end_ - p_ < 3 || p_[1] != '\\' || p_[2] != 'u') return false;
              p_ += 2;  // land on the second 'u'; hex4 reads p_[1..4]
              long lo = 0;
              if (!hex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) return false;
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return false;  // stray low surrogate
            }
            appendUtf8(out, static_cast<std::uint32_t>(cp));
            break;
          }
          default: return false;
        }
        ++p_;
      } else {
        *out += *p_++;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool number(JVal* out) {
    const char* start = p_;
    bool isInt = true;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) != 0 ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                          *p_ == '+')) {
      if (*p_ == '.' || *p_ == 'e' || *p_ == 'E') isInt = false;
      ++p_;
    }
    if (p_ == start) return false;
    const std::string text(start, p_);
    char* pe = nullptr;
    if (isInt) {
      out->t = JVal::T::Int;
      out->i = std::strtoll(text.c_str(), &pe, 10);
      if (pe != text.c_str() + text.size()) return false;
      // A double whose %.17g rendering happens to look integral ("-0",
      // "42") also lands here; keep the strtod value so num() preserves it
      // exactly — casting i would turn -0.0 into +0.0.
      out->d = std::strtod(text.c_str(), &pe);
    } else {
      out->t = JVal::T::Dbl;
      out->d = std::strtod(text.c_str(), &pe);
    }
    return pe == text.c_str() + text.size();
  }

  const char* p_;
  const char* end_;
  JParseOptions opts_{};
  int depth_ = 0;
  std::string error_;
};

}  // namespace mb::json
