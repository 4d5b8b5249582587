#include "sim/experiment.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "sim/knobs.hpp"

namespace mb::sim {

SystemConfig tsiBaselineConfig() {
  SystemConfig cfg;
  cfg.phy = interface::PhyKind::LpddrTsi;
  cfg.ubank = dram::UbankConfig{1, 1};
  cfg.pagePolicy = core::PolicyKind::Open;
  cfg.scheduler = mc::SchedulerKind::ParBs;
  cfg.interleaveBaseBit = -1;  // page interleaving
  return cfg;
}

SystemConfig ddr3PcbConfig() {
  SystemConfig cfg = tsiBaselineConfig();
  cfg.phy = interface::PhyKind::Ddr3Pcb;
  return cfg;
}

const std::vector<NamedConfig>& shippedPresets() {
  // Each preset is the TSI baseline with knob flags applied (sim/knobs.hpp).
  static const std::vector<NamedConfig> presets = [] {
    const std::pair<const char*, std::vector<std::string>> flags[] = {
        {"tsi-baseline", {}},
        {"ddr3-pcb", {"--phy=ddr3-pcb"}},
        {"ddr3-tsi", {"--phy=ddr3-tsi"}},
        {"hmc", {"--phy=hmc"}},
        {"tsi-ubank(1,1)", {"--nw=1", "--nb=1"}},
        {"tsi-ubank(2,8)", {"--nw=2", "--nb=8"}},
        {"tsi-ubank(4,4)", {"--nw=4", "--nb=4"}},
        {"tsi-ubank(8,2)", {"--nw=8", "--nb=2"}},
        {"tsi-close-page", {"--policy=close"}},
        {"tsi-line-interleave", {"--ib=6"}},
        {"tsi-xor-bank-hash", {"--xor-bank-hash"}},
        {"tsi-per-bank-refresh", {"--per-bank-refresh"}},
        {"tsi-ubank(4,4)-scaled-act-window", {"--nw=4", "--nb=4", "--scale-act-window"}},
    };
    std::vector<NamedConfig> out;
    for (const auto& [name, knobs] : flags) {
      out.push_back({name, tsiBaselineConfig()});
      const KnobArgs parsed = parseKnobs(knobs, out.back().cfg);
      MB_CHECK_MSG(parsed.error.empty() && parsed.rest.empty(),
                   "preset %s is not a list of valid knob flags", name);
    }
    return out;
  }();
  return presets;
}

std::optional<SystemConfig> presetByName(const std::string& name) {
  for (const auto& p : shippedPresets())
    if (p.name == name) return p.cfg;
  return std::nullopt;
}

SlicePreset slicePresetFromEnv(SlicePreset fallback) {
  const char* env = std::getenv("MB_SLICE");
  if (env == nullptr) return fallback;
  if (std::strcmp(env, "full") == 0) return SlicePreset::Full;
  if (std::strcmp(env, "fast") == 0) return SlicePreset::Fast;
  // Silently falling back here would let a typo ("ful", "FAST") change every
  // reported number without any sign of it; reject loudly instead.
  std::fprintf(stderr,
               "mb: unrecognized MB_SLICE value \"%s\" (expected \"fast\" or "
               "\"full\")\n",
               env);
  std::exit(2);
}

std::int64_t sliceInstructions(SlicePreset preset, bool multicore) {
  // "Fast" keeps the whole bench suite under an hour on a laptop core
  // (single-app runs execute four slice copies, so the per-core budget is
  // modest); "Full" trades ~10x runtime for tighter statistics.
  switch (preset) {
    case SlicePreset::Fast: return multicore ? 60000 : 300000;
    case SlicePreset::Full: return multicore ? 1000000 : 4000000;
  }
  return 1000000;
}

void applySlice(SystemConfig& cfg, SlicePreset preset, bool multicore) {
  cfg.core.maxInstrs = sliceInstructions(preset, multicore);
}

RunResult runSpecApp(const std::string& appName, const SystemConfig& cfg) {
  return runSimulation(cfg, WorkloadSpec::spec(appName));
}

namespace {

/// Report a zero/negative baseline metric (see header for the contract).
void reportZeroBaseline(const RunResult& baseline, double value,
                        analysis::DiagnosticEngine& diags) {
  diags.report(analysis::Diagnostic("MB-EXP-001", analysis::Severity::Error,
                                    "baseline metric is not strictly positive; "
                                    "ratio is undefined")
                   .with("workload", baseline.workload)
                   .with("baselineMetric", value));
}

}  // namespace

double ratio(const RunResult& test, const RunResult& baseline,
             const std::function<double(const RunResult&)>& metric,
             analysis::DiagnosticEngine* diags) {
  const double b = metric(baseline);
  if (!(b > 0.0)) {
    MB_CHECK_MSG(diags != nullptr,
                 "baseline metric %g is not strictly positive (workload %s)", b,
                 baseline.workload.c_str());
    reportZeroBaseline(baseline, b, *diags);
    return std::numeric_limits<double>::quiet_NaN();
  }
  return metric(test) / b;
}

double meanRatio(const std::vector<RunResult>& test,
                 const std::vector<RunResult>& baseline,
                 const std::function<double(const RunResult&)>& metric,
                 analysis::DiagnosticEngine* diags) {
  MB_CHECK(test.size() == baseline.size() && !test.empty());
  double sum = 0.0;
  std::size_t valid = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    const double r = ratio(test[i], baseline[i], metric, diags);
    // Diagnosed pairs come back NaN; excluding them keeps one degenerate
    // baseline from turning the whole group mean into inf/NaN.
    if (std::isnan(r)) continue;
    sum += r;
    ++valid;
  }
  return valid == 0 ? 0.0 : sum / static_cast<double>(valid);
}

const std::vector<int>& sweepAxis() {
  static const std::vector<int> axis{1, 2, 4, 8, 16};
  return axis;
}

std::vector<NamedUbank> representativeConfigs() {
  return {{1, 1, "(1,1)"}, {2, 8, "(2,8)"}, {4, 4, "(4,4)"}, {8, 2, "(8,2)"}};
}

}  // namespace mb::sim
