#include "common/string_util.hpp"

#include <charconv>

namespace mb {

std::vector<std::string> splitString(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : s) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  out.push_back(cur);
  return out;
}

std::string joinStrings(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string trimString(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

std::optional<std::int64_t> parseInt(const std::string& text, std::int64_t lo,
                                     std::int64_t hi) {
  std::int64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || end != last || v < lo || v > hi) return std::nullopt;
  return v;
}

std::string intFlagError(const std::string& flag, const std::string& value,
                         std::int64_t lo, std::int64_t hi) {
  std::string msg = flag + " expects an integer >= " + std::to_string(lo);
  if (hi != INT64_MAX) msg += " and <= " + std::to_string(hi);
  return msg + ", got \"" + value + "\"";
}

bool matchFlag(const std::string& arg, const std::string& name, std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (!startsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace mb
