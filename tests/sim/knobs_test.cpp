#include "sim/knobs.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"

namespace mb::sim {
namespace {

// ---- SystemConfig's fields ----------------------------------------------

// Converts to any field type, so SystemConfig{AnyField x N} compiles exactly
// when N is at most the number of top-level fields.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <std::size_t>
using AnyFieldAt = AnyField;

template <typename T, std::size_t... I>
constexpr bool bracesFrom(std::index_sequence<I...>) {
  return requires(AnyFieldAt<I>... field) { T{field...}; };
}

template <typename T, std::size_t N>
constexpr bool takesFields = bracesFrom<T>(std::make_index_sequence<N>{});

// The 17 fields and where each one is accounted for:
//   knob rows, hashed: phy, ubank (nw, nb), channels, pagePolicy (policy),
//     scheduler, interleaveBaseBit (ib), xorBankHash, queueDepth (queue),
//     refresh (no-refresh), perBankRefresh, scaleActWindowWithRowSize
//     (scale-act-window), timingCheck, hier (no-prefetch), core (instrs),
//     seed;
//   hashed, no knob: specCopies, the paper's four SimPoint slices (§VI-A),
//     which no experiment varies;
//   neither: recordCmdsPath, where a run writes its command trace, not what
//     it simulates.
static_assert(takesFields<SystemConfig, 17> && !takesFields<SystemConfig, 18>,
              "SystemConfig's field count changed: a new field needs a knob row "
              "(sim/knobs.cpp) and a systemConfigHash line (sim/system.cpp), or a "
              "reason stated in the list above");

// ---- systemConfigHash pins ----------------------------------------------

// systemConfigHash of every shipped preset, shaped for one SPEC app and for
// TPC-H. Result-cache keys and the MBCKPT1 configHash derive from it, so a
// moved value orphans every cached result and snapshot.
struct HashPin {
  const char* preset;
  const char* workload;
  std::uint64_t hash;
};
constexpr HashPin kHashPins[] = {
    {"tsi-baseline", "429.mcf", 0xa6c975afc0113cc4ull},
    {"tsi-baseline", "TPC-H", 0xc601ea6bd0b5db94ull},
    {"ddr3-pcb", "429.mcf", 0x01ac26c96ceb006aull},
    {"ddr3-pcb", "TPC-H", 0x9e52dbd2345c8ce6ull},
    {"ddr3-tsi", "429.mcf", 0xe501dee77442a6bfull},
    {"ddr3-tsi", "TPC-H", 0x04978f8650816557ull},
    {"hmc", "429.mcf", 0xba41d9d456a9ef67ull},
    {"hmc", "TPC-H", 0xa78e2fa842d2c917ull},
    {"tsi-ubank(1,1)", "429.mcf", 0xa6c975afc0113cc4ull},
    {"tsi-ubank(1,1)", "TPC-H", 0xc601ea6bd0b5db94ull},
    {"tsi-ubank(2,8)", "429.mcf", 0x554dd4264dedc71aull},
    {"tsi-ubank(2,8)", "TPC-H", 0x393025ee43e9469eull},
    {"tsi-ubank(4,4)", "429.mcf", 0x918ced6e30760f14ull},
    {"tsi-ubank(4,4)", "TPC-H", 0x3607fd4352231764ull},
    {"tsi-ubank(8,2)", "429.mcf", 0x041feb7f0f48ec7aull},
    {"tsi-ubank(8,2)", "TPC-H", 0x2ba96e98b959bb7eull},
    {"tsi-close-page", "429.mcf", 0x71da71068590b92bull},
    {"tsi-close-page", "TPC-H", 0x9e78f2df885fabe3ull},
    {"tsi-line-interleave", "429.mcf", 0xfd03c39c29a00f12ull},
    {"tsi-line-interleave", "TPC-H", 0xc174657c88491a76ull},
    {"tsi-xor-bank-hash", "429.mcf", 0x7ad27465261eb3cfull},
    {"tsi-xor-bank-hash", "TPC-H", 0x7ce77cd21c16d07full},
    {"tsi-per-bank-refresh", "429.mcf", 0xce5cd74475018553ull},
    {"tsi-per-bank-refresh", "TPC-H", 0xd5d2668aa7899a6bull},
    {"tsi-ubank(4,4)-scaled-act-window", "429.mcf", 0x44b9b1b8082522bdull},
    {"tsi-ubank(4,4)-scaled-act-window", "TPC-H", 0x7db10d8ecfcb76cdull},
};

/// systemConfigHash of `cfg` run on `workload`, shaped as a run shapes it.
std::uint64_t shapedHash(SystemConfig cfg, const std::string& workload) {
  const auto spec = workloadByName(workload);
  EXPECT_TRUE(spec.has_value()) << workload;
  applyWorkloadShape(cfg, *spec);
  return systemConfigHash(cfg, *spec);
}

TEST(SystemConfigHash, ShippedPresetsArePinned) {
  std::set<std::string> pinned;
  for (const HashPin& pin : kHashPins) {
    const auto cfg = presetByName(pin.preset);
    ASSERT_TRUE(cfg.has_value()) << pin.preset;
    EXPECT_EQ(shapedHash(*cfg, pin.workload), pin.hash) << pin.preset << " on "
                                                        << pin.workload;
    pinned.insert(pin.preset);
  }
  for (const auto& p : shippedPresets()) EXPECT_EQ(pinned.count(p.name), 1u) << p.name;
  EXPECT_EQ(std::size(kHashPins), 2 * shippedPresets().size());
}

// ---- The table ------------------------------------------------------------

// One flag per knob row that moves the resolved configuration away from
// the TSI baseline's.
const std::map<std::string, std::string>& samples() {
  static const std::map<std::string, std::string> kSamples = {
      {"nw", "--nw=4"},
      {"nb", "--nb=4"},
      {"phy", "--phy=hmc"},
      {"policy", "--policy=close"},
      {"scheduler", "--scheduler=frfcfs"},
      {"ib", "--ib=6"},
      {"queue", "--queue=16"},
      {"channels", "--channels=2"},
      {"instrs", "--instrs=2000"},
      {"seed", "--seed=7"},
      {"xor-bank-hash", "--xor-bank-hash"},
      {"per-bank-refresh", "--per-bank-refresh"},
      {"scale-act-window", "--scale-act-window"},
      {"no-refresh", "--no-refresh"},
      {"no-prefetch", "--no-prefetch"},
      {"timing-check", "--timing-check"},
  };
  return kSamples;
}

TEST(KnobTable, SamplesCoverEveryRow) {
  std::set<std::string> flags;
  for (const Knob& k : knobTable()) {
    EXPECT_TRUE(flags.insert(k.flag).second) << "duplicate knob --" << k.flag;
    EXPECT_EQ(samples().count(k.flag), 1u) << "no sample for --" << k.flag;
    EXPECT_NE(k.set, nullptr) << k.flag;
  }
  EXPECT_EQ(flags.size(), samples().size());
}

TEST(KnobTable, EveryKnobMovesTheConfigHash) {
  const SystemConfig base = tsiBaselineConfig();
  for (const auto& [flag, arg] : samples()) {
    SystemConfig cfg = base;
    const KnobArgs parsed = parseKnobs({arg}, cfg);
    EXPECT_EQ(parsed.error, "") << arg;
    EXPECT_EQ(parsed.knobsSet, std::vector<std::string>{flag}) << arg;
    EXPECT_TRUE(parsed.rest.empty()) << arg;
    for (const char* workload : {"429.mcf", "TPC-H"}) {
      EXPECT_NE(shapedHash(cfg, workload), shapedHash(base, workload))
          << arg << " never reaches systemConfigHash on " << workload;
    }
  }
}

TEST(KnobTable, EverySpellingOfAChoiceIsItsOwnConfig) {
  for (const Knob& k : knobTable()) {
    if (k.kind != Knob::Kind::Choice) continue;
    std::set<std::uint64_t> hashes;
    for (const auto& c : k.choices) {
      SystemConfig cfg = tsiBaselineConfig();
      const KnobArgs parsed =
          parseKnobs({std::string("--") + k.flag + "=" + c.spelling}, cfg);
      EXPECT_EQ(parsed.error, "") << k.flag << "=" << c.spelling;
      hashes.insert(shapedHash(cfg, "429.mcf"));
    }
    EXPECT_EQ(hashes.size(), k.choices.size()) << "--" << k.flag;
  }
}

TEST(KnobTable, HelpListsEveryFlagAndSpelling) {
  const std::string help = knobHelp();
  EXPECT_NE(help.find("--preset=NAME"), std::string::npos);
  for (const Knob& k : knobTable()) {
    EXPECT_NE(help.find(std::string("--") + k.flag), std::string::npos) << k.flag;
    for (const auto& c : k.choices)
      EXPECT_NE(help.find(c.spelling), std::string::npos) << c.spelling;
  }
}

// ---- The parser -----------------------------------------------------------

TEST(ParseKnobs, PresetAppliesFirstWhereverItStands) {
  SystemConfig before = tsiBaselineConfig();
  SystemConfig after = tsiBaselineConfig();
  const KnobArgs a = parseKnobs({"--nw=4", "--instrs=2000", "--preset=hmc"}, before);
  const KnobArgs b = parseKnobs({"--preset=hmc", "--nw=4", "--instrs=2000"}, after);
  EXPECT_EQ(a.error, "");
  EXPECT_EQ(a.preset, "hmc");
  EXPECT_EQ(a.knobsSet, (std::vector<std::string>{"nw", "instrs"}));
  EXPECT_EQ(before.phy, interface::PhyKind::Hmc);
  EXPECT_EQ(before.ubank.nW, 4);
  EXPECT_EQ(before.core.maxInstrs, 2000);
  EXPECT_EQ(shapedHash(before, "429.mcf"), shapedHash(after, "429.mcf"));
  EXPECT_EQ(b.preset, "hmc");
}

TEST(ParseKnobs, LastPresetWins) {
  SystemConfig cfg = tsiBaselineConfig();
  const KnobArgs parsed = parseKnobs({"--preset=hmc", "--preset=ddr3-pcb"}, cfg);
  EXPECT_EQ(parsed.error, "");
  EXPECT_EQ(parsed.preset, "ddr3-pcb");
  EXPECT_EQ(cfg.phy, interface::PhyKind::Ddr3Pcb);
}

TEST(ParseKnobs, UnknownOrEmptyPresetIsAUsageError) {
  SystemConfig cfg = tsiBaselineConfig();
  EXPECT_EQ(parseKnobs({"--preset=nope"}, cfg).error, "unknown preset: nope");
  EXPECT_EQ(parseKnobs({"--preset="}, cfg).error,
            "--preset requires a name (mblint --list-presets names them)");
}

TEST(ParseKnobs, LeavesOtherArgumentsInOrder) {
  SystemConfig cfg = tsiBaselineConfig();
  const KnobArgs parsed = parseKnobs(
      {"--workload=TPC-H", "--nw=2", "--json", "--xor-bank-hash=1", "--nw"}, cfg);
  EXPECT_EQ(parsed.error, "");
  EXPECT_EQ(parsed.knobsSet, std::vector<std::string>{"nw"});
  // A switch given a value and a valued knob given none are not knob flags.
  EXPECT_EQ(parsed.rest, (std::vector<std::string>{"--workload=TPC-H", "--json",
                                                   "--xor-bank-hash=1", "--nw"}));
  EXPECT_FALSE(cfg.xorBankHash);
}

TEST(ParseKnobs, ReportsTheFirstUsageError) {
  SystemConfig cfg = tsiBaselineConfig();
  const KnobArgs parsed = parseKnobs({"--nb=2", "--nw=4x", "--phy=bogus"}, cfg);
  EXPECT_EQ(parsed.error,
            "--nw expects an integer >= -2147483648 and <= 2147483647, got \"4x\"");
  EXPECT_EQ(cfg.ubank.nB, 2);
}

TEST(ParseKnobs, IntRangesComeFromTheTable) {
  SystemConfig cfg = tsiBaselineConfig();
  EXPECT_EQ(parseKnobs({"--instrs=0"}, cfg).error,
            "--instrs expects an integer >= 1, got \"0\"");
  EXPECT_EQ(parseKnobs({"--seed=-1"}, cfg).error,
            "--seed expects an integer >= 0, got \"-1\"");
  // Config ranges are the lint's: any int parses.
  EXPECT_EQ(parseKnobs({"--nw=3", "--queue=-7"}, cfg).error, "");
  EXPECT_EQ(cfg.ubank.nW, 3);
  EXPECT_EQ(cfg.queueDepth, -7);
}

TEST(ParseKnobs, BadChoiceListsTheSpellings) {
  SystemConfig cfg = tsiBaselineConfig();
  EXPECT_EQ(parseKnobs({"--phy=ddr4"}, cfg).error,
            "--phy expects one of ddr3-pcb|ddr3-tsi|lpddr-tsi|hmc, got \"ddr4\"");
  EXPECT_EQ(parseKnobs({"--scheduler="}, cfg).error,
            "--scheduler expects one of fcfs|frfcfs|parbs, got \"\"");
}

TEST(PresetByName, FindsEveryShippedPreset) {
  for (const auto& p : shippedPresets()) {
    const auto cfg = presetByName(p.name);
    ASSERT_TRUE(cfg.has_value()) << p.name;
    EXPECT_EQ(shapedHash(*cfg, "429.mcf"), shapedHash(p.cfg, "429.mcf")) << p.name;
  }
  EXPECT_FALSE(presetByName("nope").has_value());
  EXPECT_FALSE(presetByName("").has_value());
}

}  // namespace
}  // namespace mb::sim
