#include "analysis/det_lint.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/cxx_lexer.hpp"

namespace mb::analysis {
namespace {

// The tokenizer, the bracket-matching scope helpers and the marker scanner
// live in the shared cxx_lexer (they serve snap_lint too); the aliases keep
// this analysis reading the way it always has.
using Tok = cxx::Token;
using cxx::isI;
using cxx::isP;
using cxx::kNpos;
using cxx::lex;
using cxx::Lexed;
using cxx::matchAngles;
using cxx::matchForward;
using cxx::skipToBody;

// ---------------------------------------------------------------------------
// Findings (pre-suppression).

void add(std::vector<Diagnostic>& out, const char* code, std::string message,
         const std::string& file, int line,
         std::vector<std::pair<std::string, std::string>> ctx = {}) {
  Diagnostic& d = out.emplace_back(code, Severity::Error, std::move(message));
  d.where = SourceLocation{file, line};
  d.context = std::move(ctx);
}

// ---------------------------------------------------------------------------
// Per-file determinism checks (MB-DET-001..005).

constexpr const char* kUnordered[] = {"unordered_map", "unordered_set",
                                      "unordered_multimap", "unordered_multiset"};
constexpr const char* kKeyedContainers[] = {
    "map", "multimap", "set", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "FlatMap"};
/// These need a preceding :: to count (bare `map`/`set` are common words).
constexpr const char* kNeedsScope[] = {"map", "multimap", "set", "multiset"};
constexpr const char* kClockFuncs[] = {"rand", "srand", "drand48", "lrand48",
                                       "time", "clock", "gettimeofday",
                                       "clock_gettime"};
constexpr const char* kClockTypes[] = {
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48", "knuth_b",
    "steady_clock", "system_clock", "high_resolution_clock"};
constexpr const char* kBeginNames[] = {"begin", "cbegin", "rbegin", "crbegin"};
/// Path suffixes where MB-DET-003 is sanctioned without per-line
/// suppressions: the one blessed randomness source. Host timing lives in
/// mbbench, outside the scanned tree, or under an MB_DET_ALLOW with its
/// reason (the sweep ETA clock).
constexpr const char* kClockAllowlist[] = {"common/rng.hpp"};

template <typename Arr>
bool inList(const Arr& arr, const std::string& s) {
  for (const char* e : arr)
    if (s == e) return true;
  return false;
}

struct DeclState {
  std::set<std::string> unorderedAliases;  // using X = std::unordered_map<...>
  std::set<std::string> unorderedVars;
  std::set<std::string> fpVars;
};

bool isUnorderedName(const DeclState& st, const Tok& t) {
  return t.kind == Tok::Kind::Ident &&
         (inList(kUnordered, t.text) || st.unorderedAliases.count(t.text) > 0);
}

/// One sweep recording unordered-container variables/aliases and
/// floating-point variables. Run twice so aliases declared after first use
/// (class members below the methods that use them) still resolve.
void collectDecls(const std::vector<Tok>& t, DeclState& st) {
  const std::size_t n = t.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (isI(t[i], "using") && i + 2 < n && t[i + 1].kind == Tok::Kind::Ident &&
        isP(t[i + 2], "=")) {
      bool unordered = false;
      std::size_t j = i + 3;
      for (; j < n && !isP(t[j], ";"); ++j)
        if (isUnorderedName(st, t[j])) unordered = true;
      if (unordered) st.unorderedAliases.insert(t[i + 1].text);
      i = j;
      continue;
    }
    if (isUnorderedName(st, t[i])) {
      std::size_t j = i + 1;
      if (j < n && isP(t[j], "<")) {
        const std::size_t e = matchAngles(t, j);
        if (e == kNpos) continue;
        j = e + 1;
      }
      while (j < n && (isP(t[j], "&") || isP(t[j], "*") || isI(t[j], "const")))
        ++j;
      if (j < n && t[j].kind == Tok::Kind::Ident)
        st.unorderedVars.insert(t[j].text);
      continue;
    }
    if ((isI(t[i], "double") || isI(t[i], "float")) && i + 1 < n) {
      std::size_t j = i + 1;
      while (j < n && (isP(t[j], "&") || isP(t[j], "*"))) ++j;
      if (j < n && t[j].kind == Tok::Kind::Ident) st.fpVars.insert(t[j].text);
    }
  }
}

void checkFile(const std::string& path, const std::vector<Tok>& t,
               bool clockAllowed, std::vector<Diagnostic>& out) {
  DeclState st;
  collectDecls(t, st);
  collectDecls(t, st);
  const std::size_t n = t.size();

  struct LoopSpan { std::size_t begin, end; std::string var; };
  std::vector<LoopSpan> unorderedLoops;

  for (std::size_t i = 0; i < n; ++i) {
    const Tok& tok = t[i];
    if (tok.kind == Tok::Kind::Ident) {
      // MB-DET-001: range-for over an unordered container.
      if (tok.text == "for" && i + 1 < n && isP(t[i + 1], "(")) {
        const std::size_t cp = matchForward(t, i + 1, "(", ")");
        if (cp == kNpos) continue;
        std::size_t colon = kNpos;
        int depth = 0;
        for (std::size_t j = i + 1; j < cp; ++j) {
          if (isP(t[j], "(")) ++depth;
          else if (isP(t[j], ")")) --depth;
          else if (depth == 1 && isP(t[j], ":")) { colon = j; break; }
        }
        if (colon == kNpos) continue;  // classic for
        std::size_t lastIdent = kNpos;
        for (std::size_t j = colon + 1; j < cp; ++j)
          if (t[j].kind == Tok::Kind::Ident) lastIdent = j;
        if (lastIdent == kNpos || st.unorderedVars.count(t[lastIdent].text) == 0)
          continue;
        add(out, "MB-DET-001",
            "range-for over unordered container '" + t[lastIdent].text +
                "' — iteration order depends on the hash table, not the data",
            path, tok.line, {{"container", t[lastIdent].text}});
        std::size_t b = cp + 1, e = b;
        if (b < n && isP(t[b], "{")) {
          const std::size_t close = matchForward(t, b, "{", "}");
          e = (close == kNpos) ? n - 1 : close;
        } else {
          while (e < n && !isP(t[e], ";")) ++e;
        }
        unorderedLoops.push_back({b, e, t[lastIdent].text});
        continue;
      }
      // MB-DET-001: explicit iterator walk on an unordered container.
      if (st.unorderedVars.count(tok.text) > 0 && i + 3 < n &&
          isP(t[i + 1], ".") && t[i + 2].kind == Tok::Kind::Ident &&
          inList(kBeginNames, t[i + 2].text) && isP(t[i + 3], "(")) {
        add(out, "MB-DET-001",
            "iterator walk over unordered container '" + tok.text +
                "' — iteration order depends on the hash table, not the data",
            path, tok.line, {{"container", tok.text}});
        continue;
      }
      // MB-DET-002: pointer-typed container key / pointer laundering.
      if (inList(kKeyedContainers, tok.text) && i + 1 < n && isP(t[i + 1], "<") &&
          (!inList(kNeedsScope, tok.text) || (i > 0 && isP(t[i - 1], "::")))) {
        const std::size_t e = matchAngles(t, i + 1);
        if (e != kNpos) {
          std::size_t lastOfKey = kNpos;
          int depth = 1;
          for (std::size_t j = i + 2; j < e; ++j) {
            if (isP(t[j], "<")) ++depth;
            else if (isP(t[j], ">")) --depth;
            else if (depth == 1 && isP(t[j], ",")) break;
            lastOfKey = j;
          }
          if (lastOfKey != kNpos && isP(t[lastOfKey], "*")) {
            add(out, "MB-DET-002",
                "pointer-typed key in '" + tok.text +
                    "' — key order and value depend on allocation addresses (ASLR)",
                path, tok.line, {{"container", tok.text}});
          }
        }
      }
      if (tok.text == "uintptr_t" || tok.text == "intptr_t") {
        add(out, "MB-DET-002",
            "pointer laundered through '" + tok.text +
                "' — the integer value depends on allocation addresses (ASLR)",
            path, tok.line);
        continue;
      }
      // MB-DET-003: randomness / wall-clock sources.
      if (!clockAllowed) {
        const bool memberCall = i > 0 && (isP(t[i - 1], ".") || isP(t[i - 1], "->"));
        if (!memberCall && inList(kClockFuncs, tok.text) && i + 1 < n &&
            isP(t[i + 1], "(")) {
          add(out, "MB-DET-003",
              "call to '" + tok.text +
                  "' — wall-clock/libc randomness; use common/rng.hpp streams",
              path, tok.line, {{"callee", tok.text}});
          continue;
        }
        if (inList(kClockTypes, tok.text)) {
          add(out, "MB-DET-003",
              "use of '" + tok.text +
                  "' — nondeterministic source; use common/rng.hpp streams "
                  "(host timing belongs in mbbench)",
              path, tok.line, {{"source", tok.text}});
          continue;
        }
      }
      // MB-DET-004: mutable static-duration / thread-local state.
      if ((tok.text == "static" || tok.text == "thread_local") &&
          !(i > 0 && (isI(t[i - 1], "static") || isI(t[i - 1], "thread_local")))) {
        std::string name;
        for (std::size_t j = i + 1; j < n; ++j) {
          if (isI(t[j], "const") || isI(t[j], "constexpr") || isI(t[j], "constinit"))
            break;  // immutable: fine
          if (isP(t[j], "(")) break;  // function declaration / definition
          if (isP(t[j], ";") || isP(t[j], "=") || isP(t[j], "{")) {
            add(out, "MB-DET-004",
                "mutable static-duration state '" + name +
                    "' — hidden cross-run/cross-shard coupling",
                path, tok.line, {{"variable", name}});
            break;
          }
          if (t[j].kind == Tok::Kind::Ident) name = t[j].text;
        }
        continue;
      }
    }
  }
  // MB-DET-005: floating-point accumulation inside unordered iteration.
  for (const LoopSpan& loop : unorderedLoops) {
    for (std::size_t j = loop.begin; j < loop.end && j + 1 < n; ++j) {
      if (t[j].kind == Tok::Kind::Ident && st.fpVars.count(t[j].text) > 0 &&
          (isP(t[j + 1], "+=") || isP(t[j + 1], "-="))) {
        add(out, "MB-DET-005",
            "floating-point accumulation into '" + t[j].text +
                "' inside a loop over unordered container '" + loop.var +
                "' — the sum depends on hash order",
            path, t[j].line,
            {{"accumulator", t[j].text}, {"container", loop.var}});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ownership pass.

struct Span {
  std::size_t file = 0;  // index into the input list
  std::size_t begin = 0, end = 0;  // token range, inclusive
};

struct TypeInfo {
  bool cross = false;
  std::string file;
  int line = 1;
  std::set<std::string> interfaces;
  std::vector<Span> spans;
};

struct IfaceDecl {
  std::string target;
  std::size_t file = 0;
  std::size_t tok = 0;
  int line = 1;
};

}  // namespace

// ---------------------------------------------------------------------------
// OwnershipMap rendering.

int OwnershipMap::undeclared() const {
  int c = 0;
  for (const Ref& r : refs)
    if (!r.declared) ++c;
  return c;
}

std::string OwnershipMap::json() const {
  std::ostringstream os;
  os << "{\"types\":[";
  for (std::size_t i = 0; i < types.size(); ++i) {
    const Type& t = types[i];
    if (i) os << ',';
    os << "{\"name\":\"" << jsonEscape(t.name) << "\",\"ownership\":\""
       << (t.crossChannel ? "cross-channel" : "channel-local")
       << "\",\"file\":\"" << jsonEscape(t.file) << "\",\"line\":" << t.line
       << ",\"interfaces\":[";
    for (std::size_t k = 0; k < t.interfaces.size(); ++k) {
      if (k) os << ',';
      os << '"' << jsonEscape(t.interfaces[k]) << '"';
    }
    os << "]}";
  }
  os << "],\"references\":[";
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const Ref& r = refs[i];
    if (i) os << ',';
    os << "{\"from\":\"" << jsonEscape(r.fromType) << "\",\"to\":\""
       << jsonEscape(r.toType) << "\",\"file\":\"" << jsonEscape(r.file)
       << "\",\"line\":" << r.line << ",\"declared\":"
       << (r.declared ? "true" : "false") << '}';
  }
  os << "],\"undeclared\":" << undeclared() << '}';
  return os.str();
}

std::string OwnershipMap::text() const {
  std::ostringstream os;
  os << "ownership map: " << types.size() << " annotated type(s), "
     << refs.size() << " cross-ownership reference(s)\n";
  for (const Type& t : types) {
    os << "  " << (t.crossChannel ? "cross-channel" : "channel-local") << "  "
       << t.name << "  (" << t.file << ':' << t.line << ')';
    if (!t.interfaces.empty()) {
      os << "  interfaces:";
      for (const std::string& i : t.interfaces) os << ' ' << i;
    }
    os << '\n';
  }
  for (const Ref& r : refs)
    os << "  ref " << r.fromType << " -> " << r.toType << "  (" << r.file
       << ':' << r.line << ")  "
       << (r.declared ? "declared" : "UNDECLARED") << '\n';
  os << "undeclared references: " << undeclared() << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// DetLinter.

void DetLinter::run(const std::vector<SourceFile>& files) {
  ownership_ = OwnershipMap{};
  suppressions_.clear();

  std::vector<Lexed> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& f : files) lexed.push_back(lex(f.contents));

  std::vector<Diagnostic> findings;

  // Markers: suppressions (valid ones) and MB-DET-007 (malformed ones).
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    for (const Marker& m :
         scanMarkers(lexed[fi], {"MB_DET_ALLOW", "MB_DET_ALLOW_FILE"})) {
      const bool validCode = hasCodeShape(m.first, "MB-DET-");
      if (m.malformed || !validCode || m.reason.empty()) {
        std::string why = m.malformed ? "unparseable marker"
                          : !validCode
                              ? "code '" + m.first + "' is not a valid MB-DET code"
                              : "missing or empty reason string";
        add(findings, "MB-DET-007",
            "malformed suppression marker: " + why, files[fi].path, m.line,
            {{"code", m.first}});
        continue;
      }
      suppressions_.push_back({m.first, m.reason, files[fi].path, m.line,
                               m.name == "MB_DET_ALLOW_FILE", 0});
    }
  }

  // Determinism checks per file.
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    bool clockAllowed = false;
    for (const std::string suffix : kClockAllowlist) {
      const std::string& p = files[fi].path;
      if (p.size() >= suffix.size() &&
          p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0)
        clockAllowed = true;
    }
    checkFile(files[fi].path, lexed[fi].toks, clockAllowed, findings);
  }

  // Ownership: registry of annotated types...
  std::map<std::string, TypeInfo> types;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::vector<Tok>& t = lexed[fi].toks;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!isI(t[i], "class") && !isI(t[i], "struct")) continue;
      const bool local = isI(t[i + 1], "MB_CHANNEL_LOCAL");
      const bool cross = isI(t[i + 1], "MB_CROSS_CHANNEL");
      if ((!local && !cross) || t[i + 2].kind != Tok::Kind::Ident) continue;
      TypeInfo& info = types[t[i + 2].text];
      if (info.file.empty()) {
        info.file = files[fi].path;
        info.line = t[i + 2].line;
      }
      info.cross = cross;
      std::size_t j = i + 3;
      while (j < t.size() && !isP(t[j], "{") && !isP(t[j], ";")) ++j;
      if (j < t.size() && isP(t[j], "{")) {
        const std::size_t close = matchForward(t, j, "{", "}");
        if (close != kNpos) info.spans.push_back({fi, i, close});
      }
    }
  }
  // ...out-of-class member definitions (Type::member(...))...
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::vector<Tok>& t = lexed[fi].toks;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (t[i].kind != Tok::Kind::Ident || !isP(t[i + 1], "::")) continue;
      const auto it = types.find(t[i].text);
      if (it == types.end()) continue;
      std::size_t k = i + 2;
      if (k < t.size() && isP(t[k], "~")) ++k;
      if (k + 1 >= t.size() || t[k].kind != Tok::Kind::Ident || !isP(t[k + 1], "("))
        continue;
      const std::size_t closeParams = matchForward(t, k + 1, "(", ")");
      if (closeParams == kNpos) continue;
      const std::size_t body = skipToBody(t, closeParams + 1);
      if (body == kNpos) continue;
      std::size_t end = body;
      if (isP(t[body], "{")) {
        const std::size_t close = matchForward(t, body, "{", "}");
        if (close == kNpos) continue;
        end = close;
      }
      it->second.spans.push_back({fi, i, end});
      i = end;
    }
  }
  // ...MB_CHANNEL_IFACE declarations, attributed to the innermost span.
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::vector<Tok>& t = lexed[fi].toks;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (!isI(t[i], "MB_CHANNEL_IFACE") || !isP(t[i + 1], "(")) continue;
      if (t[i + 2].kind != Tok::Kind::Ident || !isP(t[i + 3], ")")) {
        add(findings, "MB-DET-007",
            "malformed MB_CHANNEL_IFACE: expected a single type name",
            files[fi].path, t[i].line);
        continue;
      }
      TypeInfo* owner = nullptr;
      std::size_t bestBegin = 0;
      for (auto& [name, info] : types) {
        for (const Span& s : info.spans) {
          if (s.file == fi && s.begin <= i && i <= s.end &&
              (owner == nullptr || s.begin >= bestBegin)) {
            owner = &info;
            bestBegin = s.begin;
          }
        }
      }
      if (owner == nullptr) {
        add(findings, "MB-DET-007",
            "MB_CHANNEL_IFACE outside any annotated type's scope — cannot "
            "attribute interface '" + t[i + 2].text + "'",
            files[fi].path, t[i].line, {{"interface", t[i + 2].text}});
        continue;
      }
      owner->interfaces.insert(t[i + 2].text);
    }
  }
  // ...and channel-local -> cross-channel references.
  std::set<std::tuple<std::string, std::string, std::string, int>> seen;
  for (const auto& [name, info] : types) {
    if (info.cross) continue;
    for (const Span& s : info.spans) {
      const std::vector<Tok>& t = lexed[s.file].toks;
      for (std::size_t i = s.begin; i <= s.end && i < t.size(); ++i) {
        if (t[i].kind != Tok::Kind::Ident) continue;
        const auto target = types.find(t[i].text);
        if (target == types.end() || !target->second.cross) continue;
        if (i > s.begin && (isI(t[i - 1], "class") || isI(t[i - 1], "struct")))
          continue;  // forward declaration, not a use
        if (!seen.emplace(name, t[i].text, files[s.file].path, t[i].line).second)
          continue;
        OwnershipMap::Ref ref;
        ref.fromType = name;
        ref.toType = t[i].text;
        ref.file = files[s.file].path;
        ref.line = t[i].line;
        ref.declared = info.interfaces.count(t[i].text) > 0;
        ownership_.refs.push_back(ref);
        if (!ref.declared)
          add(findings, "MB-DET-006",
              "channel-local '" + name + "' references cross-channel '" +
                  t[i].text + "' without a declared MB_CHANNEL_IFACE",
              ref.file, ref.line, {{"from", name}, {"to", t[i].text}});
      }
    }
  }
  std::sort(ownership_.refs.begin(), ownership_.refs.end(),
            [](const OwnershipMap::Ref& a, const OwnershipMap::Ref& b) {
              return std::tie(a.fromType, a.toType, a.file, a.line) <
                     std::tie(b.fromType, b.toType, b.file, b.line);
            });
  for (const auto& [name, info] : types) {
    OwnershipMap::Type t;
    t.name = name;
    t.crossChannel = info.cross;
    t.file = info.file;
    t.line = info.line;
    t.interfaces.assign(info.interfaces.begin(), info.interfaces.end());
    ownership_.types.push_back(std::move(t));
  }

  // Apply suppressions; a suppressed MB-DET-006 marks its reference as
  // sanctioned in the ownership map (the audit trail carries the reason).
  const std::vector<Diagnostic> suppressed = reportFindings(
      engine_, std::move(findings), suppressions_, "MB-DET-008",
      [](const std::string& code) {
        return "suppression for " + code + " matched no finding — stale?";
      });
  for (const Diagnostic& d : suppressed) {
    if (d.code != "MB-DET-006") continue;
    for (OwnershipMap::Ref& r : ownership_.refs)
      if (r.fromType == d.context[0].second && r.toType == d.context[1].second &&
          r.file == d.where.file && r.line == d.where.line)
        r.declared = true;
  }
}

}  // namespace mb::analysis
