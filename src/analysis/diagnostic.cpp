#include "analysis/diagnostic.hpp"

#include <cstdio>
#include <sstream>

namespace mb::analysis {

const char* severityName(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
    case Severity::Fatal: return "fatal";
  }
  return "unknown";
}

Diagnostic& Diagnostic::with(std::string key, std::string value) {
  context.emplace_back(std::move(key), std::move(value));
  return *this;
}

Diagnostic& Diagnostic::with(std::string key, std::int64_t value) {
  return with(std::move(key), std::to_string(value));
}

Diagnostic& Diagnostic::with(std::string key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return with(std::move(key), std::string(buf));
}

std::string Diagnostic::text() const {
  std::ostringstream os;
  os << severityName(severity) << ' ' << code << ": " << message;
  for (const auto& [k, v] : context) os << "\n  " << k << ": " << v;
  return os.str();
}

namespace {

void appendEscaped(std::string& out, std::uint32_t codePoint) {
  char buf[16];
  if (codePoint >= 0x10000) {
    // Beyond the BMP: JSON requires a UTF-16 surrogate pair.
    const std::uint32_t v = codePoint - 0x10000;
    std::snprintf(buf, sizeof(buf), "\\u%04x\\u%04x", 0xD800 + (v >> 10),
                  0xDC00 + (v & 0x3FF));
  } else {
    std::snprintf(buf, sizeof(buf), "\\u%04x", codePoint);
  }
  out += buf;
}

/// Decode one UTF-8 sequence starting at s[i]; advances i past it. Returns
/// the code point, or U+FFFD (advancing one byte) for any malformed
/// sequence: truncation, bad continuation, overlong form, surrogate range,
/// or a value beyond U+10FFFF.
std::uint32_t decodeUtf8(const std::string& s, std::size_t& i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(s[k]));
  };
  const std::uint32_t b0 = byte(i);
  int len = 0;
  std::uint32_t cp = 0;
  if (b0 >= 0xC2 && b0 <= 0xDF) { len = 2; cp = b0 & 0x1F; }
  else if (b0 >= 0xE0 && b0 <= 0xEF) { len = 3; cp = b0 & 0x0F; }
  else if (b0 >= 0xF0 && b0 <= 0xF4) { len = 4; cp = b0 & 0x07; }
  else { ++i; return 0xFFFD; }  // stray continuation or overlong lead
  if (i + static_cast<std::size_t>(len) > s.size()) { ++i; return 0xFFFD; }
  for (int k = 1; k < len; ++k) {
    const std::uint32_t bk = byte(i + static_cast<std::size_t>(k));
    if ((bk & 0xC0) != 0x80) { ++i; return 0xFFFD; }
    cp = (cp << 6) | (bk & 0x3F);
  }
  const bool overlong = (len == 3 && cp < 0x800) || (len == 4 && cp < 0x10000);
  if (overlong || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
    ++i;
    return 0xFFFD;
  }
  i += static_cast<std::size_t>(len);
  return cp;
}

}  // namespace

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (u < 0x20 || u == 0x7F) {
      appendEscaped(out, u);
      ++i;
    } else if (u < 0x80) {
      out += c;
      ++i;
    } else {
      appendEscaped(out, decodeUtf8(s, i));
    }
  }
  return out;
}

std::string Diagnostic::json() const {
  std::ostringstream os;
  os << "{\"code\":\"" << jsonEscape(code) << "\",\"severity\":\""
     << severityName(severity) << "\",\"message\":\"" << jsonEscape(message) << '"';
  os << ",\"context\":{";
  bool first = true;
  for (const auto& [k, v] : context) {
    if (!first) os << ',';
    first = false;
    os << '"' << jsonEscape(k) << "\":\"" << jsonEscape(v) << '"';
  }
  os << "}}";
  return os.str();
}

void DiagnosticEngine::report(Diagnostic d) {
  if (onReport) onReport(d);
  ++counts_[static_cast<int>(d.severity)];
  if (diags_.size() < maxStored) diags_.push_back(std::move(d));
}

std::int64_t DiagnosticEngine::total() const {
  std::int64_t t = 0;
  for (const auto c : counts_) t += c;
  return t;
}

void DiagnosticEngine::clear() {
  diags_.clear();
  for (auto& c : counts_) c = 0;
}

std::string DiagnosticEngine::renderText() const {
  std::ostringstream os;
  for (const auto& d : diags_) os << d.text() << '\n';
  return os.str();
}

std::string DiagnosticEngine::renderJson() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    if (i) os << ',';
    os << diags_[i].json();
  }
  os << ']';
  return os.str();
}

}  // namespace mb::analysis
