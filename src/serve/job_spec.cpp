#include "serve/job_spec.hpp"

#include <cinttypes>
#include <cstdio>

#include "analysis/config_lint.hpp"
#include "common/json_mini.hpp"
#include "common/string_util.hpp"
#include "sim/experiment.hpp"

namespace mb::serve {

namespace {

using analysis::Diagnostic;
using analysis::DiagnosticEngine;
using analysis::Severity;

constexpr int kMaxSpecDepth = 32;
constexpr const char* kDefaultPreset = "tsi-baseline";

bool reject(DiagnosticEngine& diags, const char* code, std::string message) {
  diags.report(Diagnostic(code, Severity::Error, std::move(message)));
  return false;
}

bool isKnownVerb(const std::string& verb) {
  return verb == "submit" || verb == "status" || verb == "cancel" ||
         verb == "flush-cache" || verb == "shutdown";
}

bool asString(const json::JVal& v, const std::string& key, std::string* out,
              DiagnosticEngine& diags) {
  if (v.t != json::JVal::T::Str)
    return reject(diags, "MB-SRV-005", "field \"" + key + "\" must be a string");
  *out = v.s;
  return true;
}

bool asBool(const json::JVal& v, const std::string& key, bool* out,
            DiagnosticEngine& diags) {
  if (v.t != json::JVal::T::Bool)
    return reject(diags, "MB-SRV-005", "field \"" + key + "\" must be a boolean");
  *out = v.b;
  return true;
}

bool asNonNegInt(const json::JVal& v, const std::string& key, std::int64_t* out,
                 DiagnosticEngine& diags) {
  if (v.t != json::JVal::T::Int || v.i < 0)
    return reject(diags, "MB-SRV-005",
                  "field \"" + key + "\" must be a non-negative integer");
  *out = v.i;
  return true;
}

bool asIntArray(const json::JVal& v, const std::string& key, std::vector<int>* out,
                DiagnosticEngine& diags) {
  if (v.t != json::JVal::T::Arr)
    return reject(diags, "MB-SRV-005",
                  "field \"" + key + "\" must be an array of positive integers");
  for (const auto& e : v.arr) {
    if (e.t != json::JVal::T::Int || e.i < 1 || e.i > 1024)
      return reject(diags, "MB-SRV-005",
                    "field \"" + key + "\" must be an array of positive integers");
    out->push_back(static_cast<int>(e.i));
  }
  return true;
}

}  // namespace

bool parseJobSpec(const std::string& line, JobSpec* out, DiagnosticEngine& diags) {
  json::JParseOptions popts;
  popts.maxDepth = kMaxSpecDepth;
  popts.rejectDuplicateKeys = true;
  json::JParser parser(line, popts);
  json::JVal root;
  if (!parser.parse(&root)) {
    const std::string& why = parser.error();
    if (startsWith(why, "duplicate key"))
      return reject(diags, "MB-SRV-002", "request rejected: " + why);
    if (startsWith(why, "nesting depth"))
      return reject(diags, "MB-SRV-003", "request rejected: " + why);
    return reject(diags, "MB-SRV-001", "malformed JSON request");
  }
  if (root.t != json::JVal::T::Obj)
    return reject(diags, "MB-SRV-005", "request must be a JSON object");

  JobSpec spec;
  bool sawWorkload = false, sawPreset = false, sawSweep = false, sawInstrs = false,
       sawNw = false, sawNb = false, sawWarmup = false, sawNocache = false,
       sawReseed = false, sawId = false;
  for (const auto& [key, v] : root.obj) {
    if (key == "verb") {
      if (!asString(v, key, &spec.verb, diags)) return false;
    } else if (key == "id") {
      sawId = true;
      if (!asString(v, key, &spec.id, diags)) return false;
    } else if (key == "client") {
      if (!asString(v, key, &spec.client, diags)) return false;
    } else if (key == "workload") {
      sawWorkload = true;
      if (!asString(v, key, &spec.workload, diags)) return false;
    } else if (key == "preset") {
      sawPreset = true;
      if (!asString(v, key, &spec.preset, diags)) return false;
    } else if (key == "sweep") {
      sawSweep = true;
      if (!asBool(v, key, &spec.sweep, diags)) return false;
    } else if (key == "instrs") {
      sawInstrs = true;
      if (!asNonNegInt(v, key, &spec.instrs, diags)) return false;
    } else if (key == "seed") {
      std::int64_t s = 0;
      if (!asNonNegInt(v, key, &s, diags)) return false;
      spec.seed = static_cast<std::uint64_t>(s);
      spec.hasSeed = true;
    } else if (key == "nw") {
      sawNw = true;
      if (!asIntArray(v, key, &spec.nw, diags)) return false;
    } else if (key == "nb") {
      sawNb = true;
      if (!asIntArray(v, key, &spec.nb, diags)) return false;
    } else if (key == "warmup") {
      sawWarmup = true;
      if (!asNonNegInt(v, key, &spec.warmup, diags)) return false;
    } else if (key == "nocache") {
      sawNocache = true;
      if (!asBool(v, key, &spec.nocache, diags)) return false;
    } else if (key == "reseed") {
      sawReseed = true;
      if (!asBool(v, key, &spec.reseed, diags)) return false;
    } else {
      return reject(diags, "MB-SRV-005", "unknown field \"" + key + "\"");
    }
  }

  if (spec.verb.empty())
    return reject(diags, "MB-SRV-005", "request has no \"verb\" field");
  if (!isKnownVerb(spec.verb))
    return reject(diags, "MB-SRV-004", "unknown verb \"" + spec.verb + "\"");

  if (spec.verb == "submit") {
    if (spec.id.empty())
      return reject(diags, "MB-SRV-005", "submit requires a non-empty \"id\"");
    if (!sawWorkload || spec.workload.empty())
      return reject(diags, "MB-SRV-005", "submit requires a \"workload\"");
    if (spec.sweep && sawPreset)
      return reject(diags, "MB-SRV-005",
                    "\"sweep\" and \"preset\" are mutually exclusive");
  } else {
    if (sawWorkload || sawPreset || sawSweep || sawInstrs || spec.hasSeed || sawNw ||
        sawNb || sawWarmup || sawNocache || sawReseed)
      return reject(diags, "MB-SRV-005",
                    "submit-only field on a \"" + spec.verb + "\" request");
    if (spec.verb == "cancel" && spec.id.empty())
      return reject(diags, "MB-SRV-005", "cancel requires a non-empty \"id\"");
    if (spec.verb != "cancel" && sawId)
      return reject(diags, "MB-SRV-005",
                    "\"id\" is not valid on a \"" + spec.verb + "\" request");
  }

  if (spec.client.empty()) spec.client = "anon";
  *out = std::move(spec);
  return true;
}

std::string canonicalJson(const JobSpec& spec) {
  std::string out = "{\"verb\":\"" + analysis::jsonEscape(spec.verb) + "\"";
  auto str = [&out](const char* key, const std::string& value) {
    out += std::string(",\"") + key + "\":\"" + analysis::jsonEscape(value) + "\"";
  };
  auto num = [&out](const char* key, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out += std::string(",\"") + key + "\":" + buf;
  };
  auto arr = [&out](const char* key, const std::vector<int>& values) {
    out += std::string(",\"") + key + "\":[";
    for (std::size_t i = 0; i < values.size(); ++i)
      out += (i != 0 ? "," : "") + std::to_string(values[i]);
    out += "]";
  };
  if (!spec.id.empty()) str("id", spec.id);
  if (spec.client != "anon") str("client", spec.client);
  if (spec.verb == "submit") {
    str("workload", spec.workload);
    if (!spec.preset.empty()) str("preset", spec.preset);
    if (spec.sweep) out += ",\"sweep\":true";
    if (spec.instrs > 0) num("instrs", static_cast<std::uint64_t>(spec.instrs));
    if (spec.hasSeed) num("seed", spec.seed);
    if (!spec.nw.empty()) arr("nw", spec.nw);
    if (!spec.nb.empty()) arr("nb", spec.nb);
    if (spec.warmup > 0) num("warmup", static_cast<std::uint64_t>(spec.warmup));
    if (spec.nocache) out += ",\"nocache\":true";
    if (spec.reseed) out += ",\"reseed\":true";
  }
  out += "}";
  return out;
}

bool planJob(const JobSpec& spec, JobPlan* out, DiagnosticEngine& diags) {
  JobPlan plan;
  plan.workloadName = spec.workload;
  plan.nocache = spec.nocache;
  const auto workload = sim::workloadByName(spec.workload);
  if (!workload)
    return reject(diags, "MB-SRV-006",
                  "unknown workload \"" + spec.workload + "\"");
  plan.workload = *workload;

  std::vector<sim::NamedConfig> bases;
  if (spec.sweep) {
    bases = sim::shippedPresets();
  } else {
    const std::string want = spec.preset.empty() ? kDefaultPreset : spec.preset;
    for (const auto& p : sim::shippedPresets())
      if (p.name == want) bases.push_back(p);
    if (bases.empty())
      return reject(diags, "MB-SRV-006", "unknown preset \"" + want + "\"");
  }

  // 0 on an axis: keep that base config's own value (no grid override).
  const std::vector<int> nws = spec.nw.empty() ? std::vector<int>{0} : spec.nw;
  const std::vector<int> nbs = spec.nb.empty() ? std::vector<int>{0} : spec.nb;
  const bool grid = !spec.nw.empty() || !spec.nb.empty();

  std::vector<std::string> rejected;
  analysis::ConfigLinter linter(diags);
  for (const auto& base : bases) {
    for (const int nw : nws) {
      for (const int nb : nbs) {
        sim::SweepPoint point;
        point.cfg = base.cfg;
        point.workload = plan.workload;
        if (nw > 0) point.cfg.ubank.nW = nw;
        if (nb > 0) point.cfg.ubank.nB = nb;
        point.label = base.name;
        if (grid) {
          point.label += "(" + std::to_string(point.cfg.ubank.nW) + "," +
                         std::to_string(point.cfg.ubank.nB) + ")";
        }
        if (spec.instrs > 0) point.cfg.core.maxInstrs = spec.instrs;
        if (spec.hasSeed) point.cfg.seed = spec.seed;
        sim::applyWorkloadShape(point.cfg, plan.workload);
        // Fold reseed into the effective per-point seed NOW, keyed by the
        // point's position in this expansion — downstream (SweepRunner, the
        // memo key) never needs to know reseed existed.
        if (spec.reseed)
          point.cfg.seed = sim::foldPointSeed(point.cfg.seed, plan.points.size());
        point.opts.warmupRecords = spec.warmup;
        if (!linter.lintSystem(point.cfg)) rejected.push_back(point.label);
        plan.points.push_back(std::move(point));
      }
    }
  }

  if (!rejected.empty()) {
    std::string which;
    for (const auto& label : rejected)
      which += (which.empty() ? "" : ", ") + label;
    return reject(diags, "MB-SRV-007",
                  "configuration rejected by lint pre-flight: " + which);
  }
  *out = std::move(plan);
  return true;
}

}  // namespace mb::serve
