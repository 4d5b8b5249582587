#include "common/string_util.hpp"

#include <charconv>

namespace mb {

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
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
