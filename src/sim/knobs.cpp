#include "sim/knobs.hpp"

#include <optional>
#include <type_traits>
#include <utility>

#include "common/string_util.hpp"
#include "sim/experiment.hpp"

namespace mb::sim {

namespace {

using K = Knob::Kind;
using C = SystemConfig;

/// Knob::set for the member a member-pointer path names:
/// assign<&SystemConfig::ubank, &dram::UbankConfig::nW> sets cfg.ubank.nW.
/// The parse range keeps every value within the member's type.
template <auto... Path>
void assign(SystemConfig& cfg, std::int64_t value) {
  auto& member = (cfg .* ... .* Path);
  member = static_cast<std::remove_reference_t<decltype(member)>>(value);
}

/// Knob::set for a --no-... switch.
template <auto... Path>
void clear(SystemConfig& cfg, std::int64_t /*value*/) {
  (cfg .* ... .* Path) = false;
}

template <typename Enum>
Knob::Choice choice(const char* spelling, Enum value) {
  return {spelling, static_cast<int>(value)};
}

std::string spellings(const Knob& k) {
  std::string out;
  for (const auto& c : k.choices) {
    if (!out.empty()) out += '|';
    out += c.spelling;
  }
  return out;
}

}  // namespace

const std::vector<Knob>& knobTable() {
  using core::PolicyKind;
  using interface::PhyKind;
  using mc::SchedulerKind;
  // nW, nB, ib, queue and channels take any int: the lint judges them.
  static const std::vector<Knob> table = {
      {"nw", K::Int, assign<&C::ubank, &dram::UbankConfig::nW>,
       "μbank wordline partitions (power of two, 1..16)"},
      {"nb", K::Int, assign<&C::ubank, &dram::UbankConfig::nB>,
       "μbank bitline partitions (power of two, 1..16)"},
      {"phy", K::Choice, assign<&C::phy>, "processor-memory interface",
       {choice("ddr3-pcb", PhyKind::Ddr3Pcb), choice("ddr3-tsi", PhyKind::Ddr3Tsi),
        choice("lpddr-tsi", PhyKind::LpddrTsi), choice("hmc", PhyKind::Hmc)}},
      {"policy", K::Choice, assign<&C::pagePolicy>, "page policy",
       {choice("open", PolicyKind::Open), choice("close", PolicyKind::Close),
        choice("minimalist", PolicyKind::MinimalistOpen),
        choice("local", PolicyKind::LocalBimodal),
        choice("global", PolicyKind::GlobalBimodal),
        choice("tournament", PolicyKind::Tournament),
        choice("perfect", PolicyKind::Perfect)}},
      {"scheduler", K::Choice, assign<&C::scheduler>, "request scheduler",
       {choice("fcfs", SchedulerKind::Fcfs), choice("frfcfs", SchedulerKind::FrFcfs),
        choice("parbs", SchedulerKind::ParBs)}},
      {"ib", K::Int, assign<&C::interleaveBaseBit>,
       "interleaving base bit (6 = cache line; default: page)"},
      {"queue", K::Int, assign<&C::queueDepth>,
       "scheduler-visible request window per controller"},
      {"channels", K::Int, assign<&C::channels>,
       "memory channels (default: 1 for a SPEC app or trace, else the PHY's)"},
      {"instrs", K::Int, assign<&C::core, &cpu::CoreParams::maxInstrs>,
       "instruction slice per core", {}, 1, INT64_MAX},
      {"seed", K::Int, assign<&C::seed>, "workload seed", {}, 0, INT64_MAX},
      {"xor-bank-hash", K::Switch, assign<&C::xorBankHash>,
       "XOR-fold low row bits into the bank and μbank index"},
      {"per-bank-refresh", K::Switch, assign<&C::perBankRefresh>,
       "rotating per-bank refresh instead of all-bank tRFC"},
      {"scale-act-window", K::Switch, assign<&C::scaleActWindowWithRowSize>,
       "scale tRRD/tFAW down with the μbank row size"},
      {"no-refresh", K::Switch, clear<&C::refresh>, "no DRAM refresh"},
      {"no-prefetch", K::Switch, clear<&C::hier, &cpu::HierarchyConfig::enablePrefetch>,
       "no L2 stream prefetcher"},
      {"timing-check", K::Switch, assign<&C::timingCheck>,
       "audit every DRAM command live (MB-AUD codes)"},
  };
  return table;
}

KnobArgs parseKnobs(const std::vector<std::string>& args, SystemConfig& cfg) {
  KnobArgs out;
  const auto fail = [&out](const std::string& msg) {
    if (out.error.empty()) out.error = msg;
  };
  std::string value;
  for (const auto& arg : args) {
    if (!matchFlag(arg, "preset", &value)) continue;
    if (auto preset = presetByName(value)) {
      cfg = std::move(*preset);
      out.preset = value;
    } else {
      fail(value.empty() ? "--preset requires a name (mblint --list-presets names them)"
                         : "unknown preset: " + value);
    }
  }
  for (const auto& arg : args) {
    const Knob* k = nullptr;
    for (const Knob& row : knobTable()) {
      if (row.kind == K::Switch ? arg == std::string("--") + row.flag
                                : matchFlag(arg, row.flag, &value)) {
        k = &row;
        break;
      }
    }
    if (k == nullptr) {
      if (!matchFlag(arg, "preset", &value)) out.rest.push_back(arg);
      continue;
    }
    out.knobsSet.push_back(k->flag);
    if (k->kind == K::Switch) {
      k->set(cfg, 1);
      continue;
    }
    std::optional<std::int64_t> v;
    if (k->kind == K::Int) v = parseInt(value, k->lo, k->hi);
    for (const auto& c : k->choices)
      if (value == c.spelling) v = c.value;
    const std::string flag = std::string("--") + k->flag;
    if (v)
      k->set(cfg, *v);
    else if (k->kind == K::Int)
      fail(intFlagError(flag, value, k->lo, k->hi));
    else
      fail(flag + " expects one of " + spellings(*k) + ", got \"" + value + "\"");
  }
  return out;
}

std::string knobHelp() {
  const std::string indent(24, ' ');
  std::string out = "config knobs (src/sim/knobs.hpp), taken by mbsim and mblint:\n";
  const auto row = [&](std::string usage, const char* help) {
    usage = "  " + usage;
    usage += usage.size() < indent.size() ? indent.substr(usage.size()) : "\n" + indent;
    out += usage + help + "\n";
  };
  row("--preset=NAME", "start from a shipped preset (mblint --list-presets names them)");
  for (const Knob& k : knobTable()) {
    if (k.kind == K::Int) row(std::string("--") + k.flag + "=N", k.help);
    if (k.kind == K::Switch) row(std::string("--") + k.flag, k.help);
    if (k.kind == K::Choice) row(std::string("--") + k.flag + "=" + spellings(k), k.help);
  }
  return out;
}

}  // namespace mb::sim
