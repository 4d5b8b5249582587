#include "sim/journal.hpp"

#include <cinttypes>
#include <cstdio>

#include "analysis/diagnostic.hpp"  // jsonEscape
#include "common/json_mini.hpp"

namespace mb::sim {

namespace {

// ---- JSON emission --------------------------------------------------------

void jstr(std::string& out, const char* key, const std::string& v) {
  out += '"';
  out += key;
  out += "\":\"";
  out += analysis::jsonEscape(v);
  out += '"';
}

void jint(std::string& out, const char* key, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRId64, key, v);
  out += buf;
}

void jdbl(std::string& out, const char* key, double v) {
  // %.17g round-trips every finite double exactly through strtod.
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%.17g", key, v);
  out += buf;
}

// ---- JSON parsing ---------------------------------------------------------
//
// The value type and recursive-descent parser live in common/json_mini.hpp
// (shared with the diagnostic-JSON schema tests).

using json::JParser;
using json::JVal;

// ---- RunResult <-> JSON ---------------------------------------------------

bool getInt(const JVal& o, const char* key, std::int64_t* out) {
  const JVal* v = o.get(key);
  if (v == nullptr || v->t != JVal::T::Int) return false;
  *out = v->i;
  return true;
}
bool getDbl(const JVal& o, const char* key, double* out) {
  const JVal* v = o.get(key);
  if (v == nullptr || (v->t != JVal::T::Dbl && v->t != JVal::T::Int)) return false;
  *out = v->num();
  return true;
}
bool getStr(const JVal& o, const char* key, std::string* out) {
  const JVal* v = o.get(key);
  if (v == nullptr || v->t != JVal::T::Str) return false;
  *out = v->s;
  return true;
}

bool decodeRunResult(const JVal& o, RunResult* r) {
  bool ok = getStr(o, "workload", &r->workload);
  ok = ok && getDbl(o, "systemIpc", &r->systemIpc);
  std::int64_t elapsed = 0;
  ok = ok && getInt(o, "elapsed", &elapsed);
  r->elapsed = elapsed;
  ok = ok && getInt(o, "instructions", &r->instructions);
  ok = ok && getDbl(o, "invEdp", &r->invEdp);
  ok = ok && getDbl(o, "rowHitRate", &r->rowHitRate);
  ok = ok && getDbl(o, "predictorHitRate", &r->predictorHitRate);
  ok = ok && getDbl(o, "avgQueueOccupancy", &r->avgQueueOccupancy);
  ok = ok && getDbl(o, "avgReadLatencyNs", &r->avgReadLatencyNs);
  ok = ok && getDbl(o, "dataBusUtilization", &r->dataBusUtilization);
  ok = ok && getInt(o, "dramReads", &r->dramReads);
  ok = ok && getInt(o, "dramWrites", &r->dramWrites);
  ok = ok && getInt(o, "activations", &r->activations);
  ok = ok && getDbl(o, "mapki", &r->mapki);
  const JVal* e = o.get("energy");
  ok = ok && e != nullptr && e->t == JVal::T::Obj;
  if (ok) {
    ok = ok && getDbl(*e, "processor", &r->energy.processor);
    ok = ok && getDbl(*e, "dramActPre", &r->energy.dramActPre);
    ok = ok && getDbl(*e, "dramStatic", &r->energy.dramStatic);
    ok = ok && getDbl(*e, "dramRdWr", &r->energy.dramRdWr);
    ok = ok && getDbl(*e, "io", &r->energy.io);
  }
  const JVal* h = o.get("hierarchy");
  ok = ok && h != nullptr && h->t == JVal::T::Obj;
  if (ok) {
    ok = ok && getInt(*h, "accesses", &r->hierarchy.accesses);
    ok = ok && getInt(*h, "l1Hits", &r->hierarchy.l1Hits);
    ok = ok && getInt(*h, "l2Hits", &r->hierarchy.l2Hits);
    ok = ok && getInt(*h, "dramReads", &r->hierarchy.dramReads);
    ok = ok && getInt(*h, "dramWrites", &r->hierarchy.dramWrites);
    ok = ok && getInt(*h, "c2cTransfers", &r->hierarchy.c2cTransfers);
    ok = ok && getInt(*h, "invalidations", &r->hierarchy.invalidations);
    ok = ok && getInt(*h, "upgrades", &r->hierarchy.upgrades);
    ok = ok && getInt(*h, "prefetchIssued", &r->hierarchy.prefetchIssued);
    ok = ok && getInt(*h, "prefetchUseful", &r->hierarchy.prefetchUseful);
  }
  const JVal* c = o.get("coreIpc");
  ok = ok && c != nullptr && c->t == JVal::T::Arr;
  if (ok) {
    r->coreIpc.clear();
    for (const auto& v : c->arr) {
      if (v.t != JVal::T::Dbl && v.t != JVal::T::Int) return false;
      r->coreIpc.push_back(v.num());
    }
  }
  return ok;
}

}  // namespace

std::string runResultToJson(const RunResult& r) {
  std::string out = "{";
  jstr(out, "workload", r.workload);
  out += ',';
  jdbl(out, "systemIpc", r.systemIpc);
  out += ',';
  jint(out, "elapsed", r.elapsed);
  out += ',';
  jint(out, "instructions", r.instructions);
  out += ',';
  jdbl(out, "invEdp", r.invEdp);
  out += ',';
  jdbl(out, "rowHitRate", r.rowHitRate);
  out += ',';
  jdbl(out, "predictorHitRate", r.predictorHitRate);
  out += ',';
  jdbl(out, "avgQueueOccupancy", r.avgQueueOccupancy);
  out += ',';
  jdbl(out, "avgReadLatencyNs", r.avgReadLatencyNs);
  out += ',';
  jdbl(out, "dataBusUtilization", r.dataBusUtilization);
  out += ',';
  jint(out, "dramReads", r.dramReads);
  out += ',';
  jint(out, "dramWrites", r.dramWrites);
  out += ',';
  jint(out, "activations", r.activations);
  out += ',';
  jdbl(out, "mapki", r.mapki);
  out += ",\"energy\":{";
  jdbl(out, "processor", r.energy.processor);
  out += ',';
  jdbl(out, "dramActPre", r.energy.dramActPre);
  out += ',';
  jdbl(out, "dramStatic", r.energy.dramStatic);
  out += ',';
  jdbl(out, "dramRdWr", r.energy.dramRdWr);
  out += ',';
  jdbl(out, "io", r.energy.io);
  out += "},\"hierarchy\":{";
  jint(out, "accesses", r.hierarchy.accesses);
  out += ',';
  jint(out, "l1Hits", r.hierarchy.l1Hits);
  out += ',';
  jint(out, "l2Hits", r.hierarchy.l2Hits);
  out += ',';
  jint(out, "dramReads", r.hierarchy.dramReads);
  out += ',';
  jint(out, "dramWrites", r.hierarchy.dramWrites);
  out += ',';
  jint(out, "c2cTransfers", r.hierarchy.c2cTransfers);
  out += ',';
  jint(out, "invalidations", r.hierarchy.invalidations);
  out += ',';
  jint(out, "upgrades", r.hierarchy.upgrades);
  out += ',';
  jint(out, "prefetchIssued", r.hierarchy.prefetchIssued);
  out += ',';
  jint(out, "prefetchUseful", r.hierarchy.prefetchUseful);
  out += "},\"coreIpc\":[";
  for (std::size_t i = 0; i < r.coreIpc.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", r.coreIpc[i]);
    out += buf;
  }
  out += "]}";
  return out;
}

bool runResultFromJson(const std::string& json, RunResult* out) {
  JVal v;
  return JParser(json).parse(&v) && v.t == JVal::T::Obj && decodeRunResult(v, out);
}

}  // namespace mb::sim
