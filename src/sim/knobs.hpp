// The configuration knobs mbsim and mblint take: one table row per flag,
// and the one parser both tools run.
//
// A row gives the flag, its kind (an int with its parse range, a switch, or
// a choice with its spellings), the SystemConfig member it sets and one
// help line. A parse range rejects only what cannot be the member's value;
// whether the configuration is valid is the config lint's call. A new
// SystemConfig field needs a row and a systemConfigHash line, or a reason
// stated in tests/sim/knobs_test.cpp, whose arity check fails until then.
#pragma once

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hpp"

namespace mb::sim {

struct Knob {
  enum class Kind { Int, Switch, Choice };
  struct Choice {
    const char* spelling;
    int value;  // what `set` receives
  };
  const char* flag;  // --flag (Switch) or --flag=VALUE
  Kind kind;
  /// Sets the member to the int, to the choice's value, or (Switch) on.
  void (*set)(SystemConfig& cfg, std::int64_t value);
  const char* help;
  std::vector<Choice> choices = {};
  std::int64_t lo = INT_MIN;  // Int: the parse range
  std::int64_t hi = INT_MAX;
};

/// Every knob, in the order the usage text lists them.
const std::vector<Knob>& knobTable();

struct KnobArgs {
  std::string preset;                 // the --preset applied, or empty
  std::vector<std::string> knobsSet;  // the knob flags applied on top of
                                      // it, in order, without the "--"
  std::vector<std::string> rest;      // the arguments no knob took, in order
  std::string error;                  // the first usage error, or empty
};

/// Apply `args` to `cfg`: --preset=NAME first, wherever it stands (the last
/// one wins), then each knob flag in order, so a knob overrides the preset
/// on either side of it.
KnobArgs parseKnobs(const std::vector<std::string>& args, SystemConfig& cfg);

/// Usage text: --preset and every knob, one per line.
std::string knobHelp();

}  // namespace mb::sim
