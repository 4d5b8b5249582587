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
//   mblint --nw=4 --nb=4 --ib=9      lint an ad-hoc config (mbsim flags)
//   mblint ... --json                machine-readable diagnostics on stdout
//
// Ad-hoc config flags mirror tools/mbsim.cpp:
//   --nw=N --nb=N --phy=KIND --policy=KIND --scheduler=KIND --ib=N
//   --queue=N --channels=N --xor-bank-hash --per-bank-refresh
//   --scale-act-window
// A numeric value that is not a whole decimal int ("4x", "1.5") is a usage
// error (exit 2); the lint itself reports an int out of range.
//
// `--version` prints the tool + format versions; JSON output embeds the
// same string in a top-level "tool" field.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/config_lint.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "mblint: %s\n(see the header of tools/mblint.cpp for flags)\n",
               msg);
  std::exit(2);
}

/// `value` as a whole decimal int; anything else is a usage error. The
/// lint itself judges the range.
int intFlag(const std::string& value, const char* flag) {
  const auto v = parseInt(value, INT_MIN, INT_MAX);
  if (!v)
    usage((std::string(flag) + " expects an integer, got \"" + value + "\"").c_str());
  return static_cast<int>(*v);
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
  bool json = false;
  bool allPresets = false;
  bool adHoc = false;
  std::string presetName;
  std::string value;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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
    } else if (matchFlag(arg, "preset", &value)) {
      if (value.empty()) usage("--preset requires a name (try --list-presets)");
      presetName = value;
    } else if (matchFlag(arg, "nw", &value)) {
      cfg.ubank.nW = intFlag(value, "--nw");
      adHoc = true;
    } else if (matchFlag(arg, "nb", &value)) {
      cfg.ubank.nB = intFlag(value, "--nb");
      adHoc = true;
    } else if (matchFlag(arg, "phy", &value)) {
      if (value == "ddr3-pcb") cfg.phy = interface::PhyKind::Ddr3Pcb;
      else if (value == "ddr3-tsi") cfg.phy = interface::PhyKind::Ddr3Tsi;
      else if (value == "lpddr-tsi") cfg.phy = interface::PhyKind::LpddrTsi;
      else if (value == "hmc") cfg.phy = interface::PhyKind::Hmc;
      else usage("unknown --phy");
      adHoc = true;
    } else if (matchFlag(arg, "policy", &value)) {
      if (value == "open") cfg.pagePolicy = core::PolicyKind::Open;
      else if (value == "close") cfg.pagePolicy = core::PolicyKind::Close;
      else if (value == "minimalist") cfg.pagePolicy = core::PolicyKind::MinimalistOpen;
      else if (value == "local") cfg.pagePolicy = core::PolicyKind::LocalBimodal;
      else if (value == "global") cfg.pagePolicy = core::PolicyKind::GlobalBimodal;
      else if (value == "tournament") cfg.pagePolicy = core::PolicyKind::Tournament;
      else if (value == "perfect") cfg.pagePolicy = core::PolicyKind::Perfect;
      else usage("unknown --policy");
      adHoc = true;
    } else if (matchFlag(arg, "scheduler", &value)) {
      if (value == "fcfs") cfg.scheduler = mc::SchedulerKind::Fcfs;
      else if (value == "frfcfs") cfg.scheduler = mc::SchedulerKind::FrFcfs;
      else if (value == "parbs") cfg.scheduler = mc::SchedulerKind::ParBs;
      else usage("unknown --scheduler");
      adHoc = true;
    } else if (matchFlag(arg, "ib", &value)) {
      cfg.interleaveBaseBit = intFlag(value, "--ib");
      adHoc = true;
    } else if (matchFlag(arg, "queue", &value)) {
      cfg.queueDepth = intFlag(value, "--queue");
      adHoc = true;
    } else if (matchFlag(arg, "channels", &value)) {
      cfg.channels = intFlag(value, "--channels");
      adHoc = true;
    } else if (arg == "--xor-bank-hash") {
      cfg.xorBankHash = true;
      adHoc = true;
    } else if (arg == "--per-bank-refresh") {
      cfg.perBankRefresh = true;
      adHoc = true;
    } else if (arg == "--scale-act-window") {
      cfg.scaleActWindowWithRowSize = true;
      adHoc = true;
    } else {
      usage(("unrecognized argument: " + arg).c_str());
    }
  }

  std::vector<sim::NamedConfig> toLint;
  if (allPresets) {
    toLint = sim::shippedPresets();
  } else if (!presetName.empty()) {
    for (auto& p : sim::shippedPresets()) {
      if (p.name == presetName) toLint.push_back(std::move(p));
    }
    if (toLint.empty()) usage(("unknown preset: " + presetName).c_str());
  } else {
    // Ad-hoc config from flags (defaults to the TSI baseline when no config
    // flag was given, which doubles as a self-check).
    toLint.push_back({adHoc ? "<command line>" : "tsi-baseline", cfg});
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
