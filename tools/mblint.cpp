// mblint — static configuration linter for the μbank simulator.
//
// Validates experiment configurations *before* any simulation tick runs:
// geometry cross-invariants, address-map bit coverage, timing sanity, and
// Table I conformance, each reported as a structured diagnostic with a
// stable MB-XXX-NNN code (registry: DESIGN.md §"Static analysis &
// diagnostics"). Exits 0 when no errors were found, 1 on any error —
// wired into ctest so every shipped preset stays lintable.
//
//   mblint --all-presets             lint every shipped named preset
//   mblint --preset=tsi-baseline     lint one named preset
//   mblint --list-presets            print the preset names
//   mblint --nw=4 --nb=4 --ib=9      lint an ad-hoc config
//   mblint --preset=hmc --nw=4       lint a preset with overrides
//   mblint ... --json                machine-readable diagnostics on stdout
//
// The configuration comes from the knobs of src/sim/knobs.hpp, the ones
// mbsim takes: --preset=NAME first, wherever it stands, then each knob flag
// overrides it. --all-presets takes neither --preset nor a knob flag (usage
// error, exit 2). A usage error prints the knob table; the lint itself
// reports a value out of range.
//
// `--version` prints the tool + format versions; JSON output embeds the
// same string in a top-level "tool" field.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/config_lint.hpp"
#include "common/version.hpp"
#include "sim/experiment.hpp"
#include "sim/knobs.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "mblint: %s\n(see the header of tools/mblint.cpp for its own flags)\n%s",
               msg.c_str(), sim::knobHelp().c_str());
  std::exit(2);
}

/// Lint one config under a display name; prints findings, returns clean?.
bool lintOne(const std::string& name, const sim::SystemConfig& cfg, bool json,
             std::string* jsonOut) {
  analysis::DiagnosticEngine engine;
  analysis::ConfigLinter linter(engine);
  linter.lintSystem(cfg);
  if (json) {
    *jsonOut += "{\"config\":\"" + analysis::jsonEscape(name) +
                "\",\"diagnostics\":" + engine.renderJson() + "}";
  } else if (engine.empty()) {
    std::printf("%-40s ok\n", name.c_str());
  } else {
    std::printf("%-40s %lld error(s), %lld warning(s)\n", name.c_str(),
                static_cast<long long>(engine.count(analysis::Severity::Error) +
                                       engine.count(analysis::Severity::Fatal)),
                static_cast<long long>(engine.count(analysis::Severity::Warning)));
    std::printf("%s", engine.renderText().c_str());
  }
  return !engine.hasErrors();
}

}  // namespace

int main(int argc, char** argv) {
  sim::SystemConfig cfg = sim::tsiBaselineConfig();
  const sim::KnobArgs knobs = sim::parseKnobs({argv + 1, argv + argc}, cfg);
  if (!knobs.error.empty()) usage(knobs.error);
  bool json = false;
  bool allPresets = false;

  for (const std::string& arg : knobs.rest) {
    if (arg == "--version") {
      std::printf("%s", versionBanner("mblint").c_str());
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--all-presets") {
      allPresets = true;
    } else if (arg == "--list-presets") {
      for (const auto& p : sim::shippedPresets()) std::printf("%s\n", p.name.c_str());
      return 0;
    } else {
      usage("unrecognized argument: " + arg);
    }
  }

  std::vector<sim::NamedConfig> toLint;
  if (allPresets) {
    if (!knobs.preset.empty() || !knobs.knobsSet.empty())
      usage("--all-presets lints the presets as shipped; drop --preset and the knob flags");
    toLint = sim::shippedPresets();
  } else {
    // The preset (the TSI baseline when none was named, which doubles as a
    // self-check) with the knob flags applied.
    std::string name = knobs.preset.empty() ? "tsi-baseline" : knobs.preset;
    if (!knobs.knobsSet.empty())
      name = knobs.preset.empty() ? "<command line>" : name + " + <command line>";
    toLint.push_back({name, cfg});
  }

  bool clean = true;
  std::string jsonOut =
      "{\"tool\":\"" + analysis::jsonEscape(versionString()) + "\",\"results\":[";
  for (std::size_t i = 0; i < toLint.size(); ++i) {
    if (i) jsonOut += ',';
    clean = lintOne(toLint[i].name, toLint[i].cfg, json, &jsonOut) && clean;
  }
  jsonOut += "]}";
  if (json) std::printf("%s\n", jsonOut.c_str());
  if (!json)
    std::printf("%s\n", clean ? "mblint: all configurations clean"
                              : "mblint: errors found");
  return clean ? 0 : 1;
}
