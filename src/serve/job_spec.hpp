// Job-spec protocol of the serving layer: parse, validate, plan.
//
// A client submits one JSON object per line. The grammar (full registry in
// DESIGN.md §"Serving layer"):
//
//   {"verb":"submit","id":"j1","client":"c1","workload":"429.mcf",
//    "preset":"tsi-baseline","instrs":200000,"seed":7}
//   {"verb":"submit","id":"j2","workload":"radix","sweep":true}     all presets
//   {"verb":"submit","id":"j3","workload":"429.mcf","nw":[1,2,4],
//    "nb":[1,8],"warmup":50000}                                     μbank grid
//   {"verb":"status"} / {"verb":"cancel","id":"j1"} /
//   {"verb":"flush-cache"} / {"verb":"shutdown"}
//
// Parsing is hostile-input strict (json_mini JParseOptions: depth cap 32,
// duplicate keys rejected, unknown fields rejected) and every rejection is a
// structured MB-SRV-* diagnostic:
//
//   MB-SRV-001  malformed JSON (syntax)
//   MB-SRV-002  duplicate key
//   MB-SRV-003  nesting deeper than 32
//   MB-SRV-004  unknown verb
//   MB-SRV-005  wrong type / missing or unknown field / conflicting fields
//   MB-SRV-006  unknown preset or workload name
//   MB-SRV-007  planned configuration rejected by the config linter
//
// planJob() expands a validated submit spec into concrete SweepPoints:
// preset (or all presets under "sweep") × optional (nW, nB) grid, the
// client's instrs/seed/warmup folded in, every config linted pre-flight, and
// "reseed" folded into each point's cfg.seed at plan time — downstream the
// plan is reseed-free, so memo-cache keys always see effective seeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "sim/sweep.hpp"

namespace mb::serve {

struct JobSpec {
  std::string verb;    // submit | status | cancel | flush-cache | shutdown
  std::string id;      // job id (required for submit / cancel)
  std::string client;  // fairness bucket; defaults to "anon"

  // submit payload:
  std::string workload;  // required
  std::string preset;    // one shipped preset; "" with !sweep → tsi-baseline
  bool sweep = false;    // run every shipped preset (excludes "preset")
  std::int64_t instrs = 0;  // 0: keep the preset's instruction slice
  std::uint64_t seed = 0;
  bool hasSeed = false;      // seed field present
  std::vector<int> nw, nb;   // μbank grid; empty axis → base config's value
  std::int64_t warmup = 0;   // functional warmup records per point
  bool nocache = false;      // bypass memo lookup (still stores the result)
  bool reseed = false;       // fold per-point seeds (foldPointSeed)
};

/// Parse + validate one request line. False on rejection, with exactly one
/// MB-SRV-* diagnostic reported (see the header registry).
bool parseJobSpec(const std::string& line, JobSpec* out,
                  analysis::DiagnosticEngine& diags);

/// Deterministic re-encoding of a validated spec — what the serve journal
/// stores, so resume re-parses through the same validator. Round-trips:
/// parseJobSpec(canonicalJson(s)) == s for every valid s.
std::string canonicalJson(const JobSpec& spec);

struct JobPlan {
  std::string workloadName;
  std::vector<sim::SweepPoint> points;  // seeds already effective (see above)
  bool nocache = false;
};

/// Expand a validated submit spec into linted sweep points. False on an
/// unknown preset/workload (MB-SRV-006) or a lint rejection (MB-SRV-007 —
/// the linter's own diagnostics are reported alongside).
bool planJob(const JobSpec& spec, JobPlan* out, analysis::DiagnosticEngine& diags);

}  // namespace mb::serve
