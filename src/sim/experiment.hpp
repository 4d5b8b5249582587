// Experiment helpers shared by the bench binaries and examples: canonical
// configurations, group averaging, and relative-metric utilities that match
// how the paper reports its figures (everything normalized to a named
// baseline configuration).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "sim/system.hpp"

namespace mb::sim {

/// Canonical baseline of the μbank study: LPDDR-TSI, (nW, nB) = (1, 1),
/// open page, PAR-BS, page interleaving.
SystemConfig tsiBaselineConfig();

/// The paper's overall baseline: DDR3 modules over PCB.
SystemConfig ddr3PcbConfig();

/// Every configuration preset the repo ships under a stable name: the two
/// baselines, each interface generation, the representative low-area μbank
/// organizations, and the extension features. `mblint` lints all of these
/// pre-flight, so a preset can never regress into an invalid configuration.
struct NamedConfig {
  std::string name;
  SystemConfig cfg;
};
const std::vector<NamedConfig>& shippedPresets();

/// The shipped preset called `name`, or nullopt.
std::optional<SystemConfig> presetByName(const std::string& name);

/// Instruction-slice presets. The full-size runs use more instructions for
/// tighter statistics; benches default to `Fast` to keep the whole suite
/// runnable in minutes. Override with the MB_SLICE environment variable
/// ("fast", "full"). Any other MB_SLICE value is rejected with a clear
/// error (exit 2) — a typo must not silently change every reported number.
enum class SlicePreset { Fast, Full };
SlicePreset slicePresetFromEnv(SlicePreset fallback = SlicePreset::Fast);
std::int64_t sliceInstructions(SlicePreset preset, bool multicore);

/// Apply a slice preset to a config.
void applySlice(SystemConfig& cfg, SlicePreset preset, bool multicore);

/// Run one single-threaded SPEC application (1 core, 1 channel, §VI-A).
RunResult runSpecApp(const std::string& appName, const SystemConfig& cfg);

/// Arithmetic mean of per-app metric ratios vs. a baseline run list.
///
/// A baseline metric of 0 is a methodology error (the paper normalizes every
/// figure to a strictly positive baseline). Without `diags` it aborts via
/// MB_CHECK; with `diags` it is reported as diagnostic MB-EXP-001 naming the
/// offending workload, the pair is excluded from the mean (so one bad pair
/// cannot poison the group average with inf), and the mean of the remaining
/// pairs is returned (0.0 if none remain).
double meanRatio(const std::vector<RunResult>& test,
                 const std::vector<RunResult>& baseline,
                 const std::function<double(const RunResult&)>& metric,
                 analysis::DiagnosticEngine* diags = nullptr);

/// Relative metric for a single pair. On a zero/negative baseline metric:
/// aborts without `diags`; with `diags`, reports MB-EXP-001 and returns a
/// quiet NaN (callers must check diags->hasErrors() before trusting it).
double ratio(const RunResult& test, const RunResult& baseline,
             const std::function<double(const RunResult&)>& metric,
             analysis::DiagnosticEngine* diags = nullptr);

/// Standard metric accessors.
inline double ipcOf(const RunResult& r) { return r.systemIpc; }
inline double invEdpOf(const RunResult& r) { return r.invEdp; }

/// The (nW, nB) axes of the paper's 5x5 sweeps.
const std::vector<int>& sweepAxis();

/// The representative low-area-overhead configs of Fig. 10 / 12 / 13.
struct NamedUbank {
  int nW;
  int nB;
  std::string label;  // "(2,8)" etc.
};
std::vector<NamedUbank> representativeConfigs();  // (1,1),(2,8),(4,4),(8,2)

}  // namespace mb::sim
