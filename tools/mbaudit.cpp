// mbaudit — offline auditor for recorded DRAM command traces.
//
// Replays an MBCMDT1 command trace (written by `mbsim --record-cmds=PATH`,
// see src/mc/command_log.hpp) through the protocol auditor — the one
// `mbsim --timing-check` runs live — and re-verifies everything the run
// claimed: Table-I timing constraints, bank-state legality, address-map
// round-trip consistency, and the total DRAM energy recomputed from the
// stream against the live meter totals in the trace trailer
// (src/mc/trace_audit.hpp).
//
//   mbaudit CMDS.mbc                  audit, human-readable report
//   mbaudit CMDS.mbc --json           machine-readable report (one object)
//   mbaudit CMDS.mbc --geometry=NAME  also cross-check the trace header
//                                     against shipped preset NAME
//                                     (single-threaded run shape, as
//                                     recorded by tools/ci.sh); mismatches
//                                     are MB-AUD-021
//   mbaudit CMDS.mbc --mutate=KIND [--seed=N]
//                                     self-test mode: plant one seeded
//                                     defect (see trace_audit.hpp) before
//                                     auditing — the audit MUST now fail
//                                     with the mutation's expected code
//
// Exit status: 0 clean audit, 1 audit found violations, 2 usage error /
// unreadable or malformed trace / inapplicable mutation.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/string_util.hpp"
#include "common/version.hpp"
#include "mc/trace_audit.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mbaudit: %s\nusage: mbaudit TRACE.mbc [--json] "
               "[--geometry=PRESET] [--mutate=KIND] [--seed=N]\n",
               msg);
  std::exit(2);
}

void printJson(const std::string& path, const mc::TraceAuditResult& res,
               const analysis::DiagnosticEngine& diags) {
  std::printf("{\"tool\":\"%s\",", analysis::jsonEscape(versionString()).c_str());
  std::printf("\"file\":\"%s\",", analysis::jsonEscape(path).c_str());
  std::printf("\"events\":%lld,\"rejected\":%lld,",
              static_cast<long long>(res.eventsAudited),
              static_cast<long long>(res.commandsRejected));
  std::printf(
      "\"recomputed\":{\"act_pre_pj\":%.6g,\"rdwr_pj\":%.6g,\"io_pj\":%.6g,"
      "\"static_pj\":%.6g,\"total_pj\":%.6g,\"activations\":%lld,"
      "\"cas_ops\":%lld,\"refreshes\":%lld},",
      res.actPre, res.rdwr, res.io, res.staticEnergy, res.recomputedTotal(),
      static_cast<long long>(res.activations), static_cast<long long>(res.casOps),
      static_cast<long long>(res.refreshes));
  std::printf("\"clean\":%s,", diags.hasErrors() ? "false" : "true");
  std::printf("\"diagnostics\":%s}\n", diags.renderJson().c_str());
}

void printText(const std::string& path, const mc::TraceAuditResult& res,
               const analysis::DiagnosticEngine& diags) {
  std::printf("trace               %s\n", path.c_str());
  std::printf("events audited      %lld (%lld rejected)\n",
              static_cast<long long>(res.eventsAudited),
              static_cast<long long>(res.commandsRejected));
  std::printf("recomputed energy   ACT/PRE %.4g pJ, RD/WR %.4g pJ, I/O %.4g pJ, "
              "static %.4g pJ (total %.4g pJ)\n",
              res.actPre, res.rdwr, res.io, res.staticEnergy, res.recomputedTotal());
  std::printf("recomputed counts   %lld ACT, %lld CAS, %lld REF\n",
              static_cast<long long>(res.activations),
              static_cast<long long>(res.casOps),
              static_cast<long long>(res.refreshes));
  if (diags.empty()) {
    std::printf("verdict             CLEAN\n");
    return;
  }
  std::printf("\n%s", diags.renderText().c_str());
  std::printf("verdict             %s (%lld error(s), %lld warning(s))\n",
              diags.hasErrors() ? "VIOLATIONS" : "CLEAN",
              static_cast<long long>(diags.count(analysis::Severity::Error) +
                                     diags.count(analysis::Severity::Fatal)),
              static_cast<long long>(diags.count(analysis::Severity::Warning)));
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string preset;
  std::string mutate;
  std::uint64_t seed = 1;
  bool json = false;
  std::string value;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      std::printf("%s", versionBanner("mbaudit").c_str());
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (matchFlag(arg, "geometry", &value)) {
      preset = value;
    } else if (matchFlag(arg, "mutate", &value)) {
      mutate = value;
    } else if (matchFlag(arg, "seed", &value)) {
      const auto v = parseInt(value, 0, INT64_MAX);
      if (!v) usage(intFlagError("--seed", value, 0, INT64_MAX).c_str());
      seed = static_cast<std::uint64_t>(*v);
    } else if (!startsWith(arg, "--") && path.empty()) {
      path = arg;
    } else {
      usage(("unrecognized argument: " + arg).c_str());
    }
  }
  if (path.empty()) usage("expected a trace file argument");

  // Load. Malformed input is a structured MB-TRC diagnostic, not an abort.
  analysis::DiagnosticEngine loadDiags;
  auto trace = mc::readCmdTrace(path, loadDiags);
  if (!trace.has_value()) {
    std::fprintf(stderr, "%s", loadDiags.renderText().c_str());
    return 2;
  }

  // Optional self-test mutation.
  if (!mutate.empty()) {
    const auto kind = mc::traceMutationFromName(mutate);
    if (!kind.has_value()) {
      std::string known;
      for (int k = 0; k < mc::kTraceMutationCount; ++k) {
        if (k > 0) known += ", ";
        known += mc::traceMutationName(static_cast<mc::TraceMutation>(k));
      }
      usage(("unknown --mutate kind (one of: " + known + ")").c_str());
    }
    if (!mc::applyTraceMutation(*trace, *kind, seed)) {
      std::fprintf(stderr,
                   "mbaudit: trace has no eligible victim for mutation %s\n",
                   mutate.c_str());
      return 2;
    }
    std::fprintf(stderr, "mbaudit: planted %s (seed %llu), expecting %s\n",
                 mutate.c_str(), static_cast<unsigned long long>(seed),
                 mc::traceMutationExpectedCode(*kind));
  }

  mc::TraceAuditOptions opts;
  mc::CmdTraceConfig expect;
  if (!preset.empty()) {
    const auto cfg = sim::presetByName(preset);
    if (!cfg) usage(("unknown preset: " + preset).c_str());
    // Single-threaded run shape (one populated channel, §VI-A) — the shape
    // tools/ci.sh and the audit tests record presets with.
    expect = sim::cmdTraceConfigFor(*cfg, sim::WorkloadSpec::spec(""));
    opts.expectConfig = &expect;
  }

  analysis::DiagnosticEngine diags;
  const auto res = mc::auditCmdTrace(*trace, diags, opts);
  if (json)
    printJson(path, res, diags);
  else
    printText(path, res, diags);
  return diags.hasErrors() ? 1 : 0;
}
