// Small string helpers used by reporting and config code.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mb {

bool startsWith(const std::string& s, const std::string& prefix);

/// `text` as a whole decimal integer in [lo, hi]; nullopt for anything else
/// (empty, a sign alone, trailing characters such as "1e5" or "7x", out of
/// range). Every numeric command-line flag parses through this, so a typo
/// is rejected instead of silently changing the run.
std::optional<std::int64_t> parseInt(const std::string& text, std::int64_t lo,
                                     std::int64_t hi);

/// Usage message for a numeric flag whose `value` parseInt rejected:
/// `FLAG expects an integer >= LO and <= HI, got "VALUE"` (an upper bound of
/// INT64_MAX goes unsaid).
std::string intFlagError(const std::string& flag, const std::string& value,
                         std::int64_t lo, std::int64_t hi);

/// True when `arg` is `--name=VALUE`; VALUE (possibly empty) goes to *value.
/// The command-line tools read every valued flag through this.
bool matchFlag(const std::string& arg, const std::string& name, std::string* value);

}  // namespace mb
