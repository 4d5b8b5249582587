// Canonical RunResult JSON codec.
//
// runResultToJson is the one byte format of a finished run: the mbserve
// result cache stores exactly these bytes (serve/result_cache.hpp), the
// serve protocol's point events carry them, and `mbsim --sweep --cache-dir`
// reads cached points back through runResultFromJson to print its table.
//
// Doubles are written with %.17g and parsed with strtod — an exact
// round-trip for every finite IEEE-754 double — so a decoded result is
// bitwise-identical to the run that produced it, and equal JSON means
// bitwise-equal results.
#pragma once

#include <string>

#include "sim/system.hpp"

namespace mb::sim {

/// One RunResult as a JSON object (all fields, exact double round-trip).
std::string runResultToJson(const RunResult& r);

/// Parse runResultToJson output back into *out. False when `json` is not
/// such an object (a field missing or of the wrong type).
bool runResultFromJson(const std::string& json, RunResult* out);

}  // namespace mb::sim
