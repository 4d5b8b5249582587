#include "analysis/snap_lint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "ckpt/serialize.hpp"

namespace mb::analysis {
namespace {

using Tok = cxx::Token;
using cxx::identChar;
using cxx::isI;
using cxx::isP;
using cxx::kNpos;
using cxx::lex;
using cxx::Lexed;
using cxx::matchAngles;
using cxx::matchForward;
using cxx::skipToBody;

// ---------------------------------------------------------------------------
// Canonical op stream.
//
// Every element of a serialized stream gets one canonical spelling, chosen
// so a save op and its load counterpart spell identically:
//   - primitives spell as the wire type ("u8","b","u32","u64","i32","i64",
//     "f64","str","bytes"); Reader::count() spells "u64" (it reads the u64
//     the writer emitted, plus a bounds check);
//   - recv.save(w) / recv.load(r) spell "sub:<recv>" where <recv> is the
//     last identifier of the receiver chain (hist.actWindow.save(w) ->
//     "sub:actWindow") so pairing catches serializing the *wrong* member;
//   - saveXxx(w,...) / loadXxx(r,...) helper calls spell "call:Xxx";
//   - saveMapSorted(w, map, fn) expands to "u64","i64" (entry count, sorted
//     key) and the value lambda's writer ops follow naturally — matching
//     the load side's manual count/i64/value loop element-for-element.

struct Op {
  std::string spell;
  int line = 0;
};

const char* primSpell(const std::string& method) {
  static const char* prims[] = {"u8",  "b",   "u32", "u64", "i32",
                                "i64", "f64", "str", "bytes"};
  for (const char* p : prims)
    if (method == p) return p;
  if (method == "count") return "u64";
  return nullptr;
}

// ---------------------------------------------------------------------------
// Structural inventory of one file set.

struct ClassSpan {
  std::string name;
  std::size_t file = 0;
  std::size_t open = 0, close = 0;  // token indices of { and }
};

struct Member {
  std::string name;
  int line = 0;
};

struct SnapFn {
  std::string cls;     // enclosing class ("" for free helpers)
  std::string name;    // full function name (save, loadPending, ...)
  std::string suffix;  // name minus the save/load prefix
  bool isSave = false;
  std::string param;   // the Writer/Reader parameter's name ("" if unnamed)
  std::size_t file = 0;
  int line = 0;
  std::size_t bodyOpen = 0, bodyClose = 0;
  std::vector<Op> ops;
  bool hasFail = false;
  std::set<std::string> idents;  // identifiers referenced in the body
};

struct TransientMark {
  std::string member;
  std::string reason;
  std::string cls;  // innermost enclosing class ("" if none)
  std::size_t file = 0;
  int line = 0;
};

struct AllowMark {  // an MB_SNAP_ALLOW[_FILE] occurrence, pre-validation
  Marker marker;
  std::size_t file = 0;
};

struct SectionName {
  std::string name;  // literal, or "callee()" for computed names
  std::size_t file = 0;
  int line = 0;
};

// ---------------------------------------------------------------------------
// Class spans and member declarations.

void collectClassSpans(const std::vector<Tok>& t, std::size_t fileIdx,
                       std::vector<ClassSpan>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!isI(t[i], "class") && !isI(t[i], "struct")) continue;
    if (i > 0 && isI(t[i - 1], "enum")) continue;  // enum class
    // The name is the last identifier in the run after the keyword (the
    // run may include no-op annotation macros like MB_CHANNEL_LOCAL), with
    // a trailing `final` contextual keyword stepped over.
    std::string name, prev;
    std::size_t j = i + 1;
    for (; j < t.size(); ++j) {
      if (t[j].kind == Tok::Kind::Ident) {
        prev = std::move(name);
        name = t[j].text;
        continue;
      }
      break;
    }
    if (name == "final" && !prev.empty()) name = prev;
    if (name.empty() || j >= t.size()) continue;
    if (isP(t[j], ":")) {  // base clause: scan to the body's '{'
      while (j < t.size() && !isP(t[j], "{") && !isP(t[j], ";")) ++j;
    }
    if (j >= t.size() || !isP(t[j], "{")) continue;
    const std::size_t close = matchForward(t, j, "{", "}");
    if (close == kNpos) continue;
    out.push_back({name, fileIdx, j, close});
  }
}

/// Innermost class span containing token index `tokIdx` in file `fileIdx`.
const ClassSpan* innermostClass(const std::vector<ClassSpan>& spans,
                                std::size_t fileIdx, std::size_t tokIdx) {
  const ClassSpan* best = nullptr;
  for (const ClassSpan& c : spans) {
    if (c.file != fileIdx || tokIdx <= c.open || tokIdx >= c.close) continue;
    if (!best || c.open > best->open) best = &c;
  }
  return best;
}

bool isDeclIntro(const std::string& w) {
  return w == "using" || w == "friend" || w == "typedef" || w == "static" ||
         w == "template" || w == "enum" || w == "class" || w == "struct" ||
         w == "operator";
}

/// Non-static data members declared at depth 1 of the class body. Lexical
/// heuristic: a run of tokens ending in ';' with no top-level parentheses
/// is a data-member declaration; the declared name is the first identifier
/// (past any template-argument angles) directly followed by '=', '{', '[',
/// ',' or ';'. Function declarations/definitions, access specifiers, nested
/// types, usings and static members are skipped.
void collectMembers(const std::vector<Tok>& t, const ClassSpan& cls,
                    std::vector<Member>& out) {
  std::size_t j = cls.open + 1;
  std::vector<std::size_t> run;  // token indices of the current flat run
  bool hadParen = false;
  auto flush = [&]() {
    if (!hadParen && run.size() >= 2 &&
        !(t[run[0]].kind == Tok::Kind::Ident && isDeclIntro(t[run[0]].text))) {
      for (std::size_t k = 1; k < run.size(); ++k) {
        const std::size_t idx = run[k];
        if (isP(t[idx], "<")) {  // skip template arguments
          const std::size_t end = matchAngles(t, idx);
          if (end != kNpos) {
            while (k < run.size() && run[k] <= end) ++k;
            if (k >= run.size()) break;
          }
        }
        const std::size_t cur = run[k];
        if (t[cur].kind != Tok::Kind::Ident) continue;
        const std::size_t nxt = cur + 1;
        if (nxt < t.size() && (isP(t[nxt], ";") || isP(t[nxt], "=") ||
                               isP(t[nxt], "{") || isP(t[nxt], "[") ||
                               isP(t[nxt], ","))) {
          out.push_back({t[cur].text, t[cur].line});
          // Multi-declarator: continue after the next top-level ','.
          while (k < run.size() && !isP(t[run[k]], ",")) ++k;
          if (k >= run.size()) break;
        }
      }
    }
    run.clear();
    hadParen = false;
  };
  while (j < cls.close) {
    const Tok& tok = t[j];
    if (isP(tok, "(")) {
      hadParen = true;
      const std::size_t end = matchForward(t, j, "(", ")");
      if (end == kNpos || end >= cls.close) break;
      j = end + 1;
      continue;
    }
    if (isP(tok, "{")) {
      const std::size_t end = matchForward(t, j, "{", "}");
      if (end == kNpos || end > cls.close) break;
      if (hadParen) {
        // Function definition: its body is not a declaration run.
        run.clear();
        hadParen = false;
      } else {
        run.push_back(j);  // brace initializer / nested aggregate
      }
      j = end + 1;
      continue;
    }
    if (isP(tok, ";")) { flush(); ++j; continue; }
    if (isP(tok, ":") && run.size() == 1 &&
        t[run[0]].kind == Tok::Kind::Ident &&
        (t[run[0]].text == "public" || t[run[0]].text == "private" ||
         t[run[0]].text == "protected")) {
      run.clear();
      ++j;
      continue;
    }
    run.push_back(j);
    ++j;
  }
}

// ---------------------------------------------------------------------------
// save/load function discovery.

bool paramListHas(const std::vector<Tok>& t, std::size_t open,
                  std::size_t close, const char* typeName,
                  std::string* paramName) {
  for (std::size_t j = open + 1; j < close; ++j) {
    if (!isI(t[j], typeName)) continue;
    // The type use must be a reference; the parameter name, if present,
    // follows the '&' (unnamed parameters are legal on empty virtuals).
    std::size_t k = j + 1;
    if (k < close && isP(t[k], "&")) {
      ++k;
      if (paramName)
        *paramName =
            (k < close && t[k].kind == Tok::Kind::Ident) ? t[k].text : "";
      return true;
    }
  }
  return false;
}

/// True when any identifier token in (open, close) equals `name`.
bool rangeHasIdent(const std::vector<Tok>& t, std::size_t open,
                   std::size_t close, const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t j = open + 1; j < close; ++j)
    if (t[j].kind == Tok::Kind::Ident && t[j].text == name) return true;
  return false;
}

/// Last identifier of the receiver chain ending just before the '.'/'->' at
/// `dotIdx`: for `hist.actWindow.save(w)` with dotIdx at the final '.' this
/// is `actWindow`; subscripted receivers (`slots_[i].save(w)`) resolve to
/// the identifier before the '['.
std::string receiverTag(const std::vector<Tok>& t, std::size_t dotIdx) {
  if (dotIdx == 0) return "";
  std::size_t k = dotIdx - 1;
  if (isP(t[k], "]")) {  // step back over the subscript
    int depth = 0;
    while (k > 0) {
      if (isP(t[k], "]")) ++depth;
      else if (isP(t[k], "[") && --depth == 0) { --k; break; }
      --k;
    }
  } else if (isP(t[k], ")")) {  // call-expression receiver: use the callee
    int depth = 0;
    while (k > 0) {
      if (isP(t[k], ")")) ++depth;
      else if (isP(t[k], "(") && --depth == 0) { --k; break; }
      --k;
    }
  }
  return (t[k].kind == Tok::Kind::Ident) ? t[k].text : "";
}

/// Extract the canonical op stream from one function body. Also performs
/// the MB-SNP-005 raw-length scan, recording a "!unguarded-size" sentinel
/// op (reported, never stream-compared).
void extractStream(const std::vector<Tok>& t, SnapFn& fn) {
  // Raw u32/u64 reads assigned to a variable, keyed by the token index of
  // the read: only *later* counted loops / resizes count as steered by it.
  std::map<std::string, std::size_t> rawSizeVars;
  for (std::size_t j = fn.bodyOpen + 1; j < fn.bodyClose; ++j) {
    if (t[j].kind == Tok::Kind::Ident) fn.idents.insert(t[j].text);
    if (t[j].kind != Tok::Kind::Ident || j + 1 >= fn.bodyClose ||
        !isP(t[j + 1], "("))
      continue;
    const std::string& callee = t[j].text;
    const std::size_t argsEnd = matchForward(t, j + 1, "(", ")");
    if (argsEnd == kNpos) continue;
    const bool viaDot = j > 0 && (isP(t[j - 1], ".") || isP(t[j - 1], "->"));
    const bool argsHaveParam = rangeHasIdent(t, j + 1, argsEnd, fn.param);
    if (viaDot) {
      const std::string recv = receiverTag(t, j - 1);
      if (!fn.param.empty() && recv == fn.param) {
        if (callee == "fail") { fn.hasFail = true; continue; }
        if (const char* spell = primSpell(callee)) {
          fn.ops.push_back({spell, t[j].line});
          if (!fn.isSave && (callee == "u32" || callee == "u64")) {
            // Raw (unguarded) length candidate: `x = r.u64()` — remember
            // the assigned variable for the MB-SNP-005 pass. (count()
            // normalizes to "u64" too but is the sanctioned guarded form.)
            if (j >= 4 && isP(t[j - 3], "=") &&
                t[j - 4].kind == Tok::Kind::Ident)
              rawSizeVars.emplace(t[j - 4].text, j);
          }
        }
        continue;
      }
      if (((fn.isSave && callee == "save") ||
           (!fn.isSave && callee == "load")) &&
          argsHaveParam) {
        fn.ops.push_back({"sub:" + recv, t[j].line});
      }
      continue;
    }
    if (fn.isSave && callee == "saveMapSorted" && argsHaveParam) {
      // Entry count then per-entry sorted key; the value lambda's writer
      // ops are inside this call's parens and the walk records them next.
      fn.ops.push_back({"u64", t[j].line});
      fn.ops.push_back({"i64", t[j].line});
      continue;
    }
    if (callee.size() > 4 &&
        callee.compare(0, 4, fn.isSave ? "save" : "load") == 0 &&
        argsHaveParam) {
      fn.ops.push_back({"call:" + callee.substr(4), t[j].line});
      continue;
    }
  }
  if (!fn.isSave && !fn.hasFail && !rawSizeVars.empty()) {
    for (std::size_t j = fn.bodyOpen + 1; j < fn.bodyClose; ++j) {
      bool sized = false;
      if ((isI(t[j], "for") || isI(t[j], "resize") || isI(t[j], "reserve")) &&
          j + 1 < fn.bodyClose && isP(t[j + 1], "(")) {
        const std::size_t end = matchForward(t, j + 1, "(", ")");
        // A range-for has no ';' in its header — its loop variable is not
        // a wire-supplied count even if it shadows one.
        bool counted = !isI(t[j], "for");
        if (end != kNpos && !counted)
          for (std::size_t k = j + 2; k < end; ++k)
            if (isP(t[k], ";")) { counted = true; break; }
        if (end != kNpos && counted)
          for (const auto& [v, readAt] : rawSizeVars)
            if (readAt < j && rangeHasIdent(t, j + 1, end, v)) sized = true;
      }
      if (sized) {
        fn.ops.push_back({"!unguarded-size", t[j].line});
        break;  // one report per body is enough
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Section-name scanning (MB-SNP-002).

/// First token index of argument N (0-based) of the call whose '(' is at
/// `open`; kNpos when the call has fewer arguments.
std::size_t argStart(const std::vector<Tok>& t, std::size_t open,
                     std::size_t close, int wanted) {
  int argIdx = 0, depth = 0;
  for (std::size_t j = open + 1; j < close; ++j) {
    if (argIdx == wanted) return j;
    if (isP(t[j], "(") || isP(t[j], "[") || isP(t[j], "{")) ++depth;
    else if (isP(t[j], ")") || isP(t[j], "]") || isP(t[j], "}")) --depth;
    else if (isP(t[j], ",") && depth == 0) ++argIdx;
  }
  return kNpos;
}

/// Canonical name for a section argument: the string literal, or
/// "callee()" for a computed name like mcSectionName(i); empty (ignore)
/// for anything else — a bare identifier is a pass-through variable, not a
/// section name in its own right.
std::string sectionArgName(const std::vector<Tok>& t, std::size_t arg,
                           std::size_t close) {
  if (arg == kNpos || arg >= close) return "";
  if (t[arg].kind == Tok::Kind::Str) return t[arg].text;
  if (t[arg].kind == Tok::Kind::Ident && arg + 1 < close &&
      isP(t[arg + 1], "("))
    return t[arg].text + "()";
  return "";
}

void collectSections(const std::vector<Tok>& t, std::size_t fileIdx,
                     std::vector<SectionName>& saveSide,
                     std::vector<SectionName>& loadSide) {
  for (std::size_t j = 0; j + 1 < t.size(); ++j) {
    if (t[j].kind != Tok::Kind::Ident || !isP(t[j + 1], "(")) continue;
    const std::size_t close = matchForward(t, j + 1, "(", ")");
    if (close == kNpos) continue;
    if (t[j].text == "addSection") {
      const std::string name =
          sectionArgName(t, argStart(t, j + 1, close, 0), close);
      if (!name.empty()) saveSide.push_back({name, fileIdx, t[j].line});
    } else if (t[j].text == "loadSection") {
      const std::string name =
          sectionArgName(t, argStart(t, j + 1, close, 1), close);
      if (!name.empty()) loadSide.push_back({name, fileIdx, t[j].line});
    } else if (t[j].text == "section" && j > 0 &&
               (isP(t[j - 1], ".") || isP(t[j - 1], "->"))) {
      const std::string name =
          sectionArgName(t, argStart(t, j + 1, close, 0), close);
      if (!name.empty()) loadSide.push_back({name, fileIdx, t[j].line});
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation scanning (MB-SNP-003 / 006).

bool isConstMethod(const std::string& m) {
  static const char* names[] = {
      "size",     "empty",    "begin",      "end",         "cbegin",
      "cend",     "at",       "find",       "lower_bound", "upper_bound",
      "count",    "contains", "front",      "back",        "data",
      "capacity", "save",     "json",       "text",        "value",
      "average",  "total",    "percentile", "mean",        "c_str",
      "str",      "view",     "valid",      "known",       "get"};
  for (const char* n : names)
    if (m == n) return true;
  return false;
}

bool isCompoundAssign(const Tok& t) {
  return t.kind == Tok::Kind::Punct &&
         (t.text == "+=" || t.text == "-=" || t.text == "*=" ||
          t.text == "/=");
}

/// Does the token range (open, close) mutate member `m` of the enclosing
/// object? Lexical: direct assignment / compound assignment / ++ / -- /
/// non-const method call on `m` (optionally via this-> and through member
/// or subscript chains).
bool rangeMutates(const std::vector<Tok>& t, std::size_t open,
                  std::size_t close, const std::string& m) {
  for (std::size_t j = open + 1; j < close; ++j) {
    if (t[j].kind != Tok::Kind::Ident || t[j].text != m) continue;
    if (j > 0 && (isP(t[j - 1], ".") || isP(t[j - 1], "->") ||
                  isP(t[j - 1], "::"))) {
      // someone_else.m — unless the receiver is `this`.
      if (!(j >= 2 && isI(t[j - 2], "this"))) continue;
    }
    if (j > 0 && (isP(t[j - 1], "++") || isP(t[j - 1], "--"))) return true;
    // Walk the access chain after the member: .field, ->field, [idx].
    std::size_t k = j + 1;
    std::string lastMethod;
    while (k < close) {
      if (isP(t[k], "[")) {
        const std::size_t end = matchForward(t, k, "[", "]");
        if (end == kNpos) break;
        k = end + 1;
        lastMethod.clear();
        continue;
      }
      if ((isP(t[k], ".") || isP(t[k], "->")) && k + 1 < close &&
          t[k + 1].kind == Tok::Kind::Ident) {
        lastMethod = t[k + 1].text;
        k += 2;
        continue;
      }
      break;
    }
    if (k >= close) continue;
    if (isP(t[k], "(")) {  // method call at the end of the chain
      if (!lastMethod.empty() && !isConstMethod(lastMethod)) return true;
      continue;
    }
    if (isP(t[k], "=") || isCompoundAssign(t[k]) || isP(t[k], "++") ||
        isP(t[k], "--"))
      return true;
    // |=, &=, ^=, %= lex as two tokens.
    if (k + 1 < close && isP(t[k + 1], "=") &&
        (isP(t[k], "|") || isP(t[k], "&") || isP(t[k], "^") ||
         isP(t[k], "%")))
      return true;
  }
  return false;
}

/// A method body attributable to one class, for the mutation scan.
struct BodySpan {
  std::size_t file = 0;
  std::size_t open = 0, close = 0;
};

}  // namespace

// ---------------------------------------------------------------------------

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int parseSnapshotVersion(const std::string& headerText) {
  const Lexed lx = lex(headerText);
  const std::vector<Tok>& t = lx.toks;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (isI(t[i], "kSnapshotVersion") && isP(t[i + 1], "=") &&
        t[i + 2].kind == Tok::Kind::Num)
      return std::atoi(t[i + 2].text.c_str());
  }
  return -1;
}

SnapLinter::SnapLinter(DiagnosticEngine& engine, SnapLintOptions opts)
    : engine_(engine), opts_(std::move(opts)) {}

std::string SnapLinter::renderBaseline() const {
  std::vector<const SnapPair*> sorted;
  for (const SnapPair& p : pairs_)
    if (p.hasSave) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const SnapPair* a, const SnapPair* b) { return a->key < b->key; });
  std::ostringstream os;
  os << "# mbstatic snap fingerprint baseline — `pair fingerprint` per line,\n"
        "# stamped with the ckpt::kSnapshotVersion it was recorded against.\n"
        "# A fingerprint change without a version bump is MB-SNP-004;\n"
        "# regenerate: mbstatic snap --write-baseline=tools/snap_baseline.txt\n";
  os << "version " << (opts_.snapshotVersion < 0 ? 0 : opts_.snapshotVersion)
     << "\n";
  for (const SnapPair* p : sorted)
    os << p->key << " " << hex16(p->fingerprint) << "\n";
  return os.str();
}

void SnapLinter::run(const std::vector<SourceFile>& files) {
  std::vector<Lexed> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& f : files) lexed.push_back(lex(f.contents));

  // ---- structural inventory --------------------------------------------
  std::vector<ClassSpan> spans;
  for (std::size_t fi = 0; fi < files.size(); ++fi)
    collectClassSpans(lexed[fi].toks, fi, spans);

  std::vector<SnapFn> fns;
  std::vector<TransientMark> transients;
  std::vector<AllowMark> allows;
  std::vector<SectionName> saveSections, loadSections;

  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const std::vector<Tok>& t = lexed[fi].toks;
    for (Marker& m : scanMarkers(lexed[fi], {"MB_SNAP_TRANSIENT", "MB_SNAP_ALLOW",
                                             "MB_SNAP_ALLOW_FILE"})) {
      if (m.name == "MB_SNAP_TRANSIENT")
        transients.push_back({m.first, m.reason, "", fi, m.line});
      else
        allows.push_back({std::move(m), fi});
    }
    collectSections(t, fi, saveSections, loadSections);

    for (std::size_t j = 0; j + 1 < t.size(); ++j) {
      if (t[j].kind != Tok::Kind::Ident || !isP(t[j + 1], "(")) continue;
      const std::string& name = t[j].text;
      const bool saveName = name.compare(0, 4, "save") == 0;
      const bool loadName = name.compare(0, 4, "load") == 0;
      if (!saveName && !loadName) continue;
      if (name == "saveMapSorted" || name == "loadSection") continue;
      // A definition's name is never preceded by call-position tokens.
      if (j > 0 && (isP(t[j - 1], ".") || isP(t[j - 1], "->") ||
                    isP(t[j - 1], "=") || isP(t[j - 1], "(") ||
                    isP(t[j - 1], ",") || isI(t[j - 1], "return")))
        continue;
      const std::size_t closeParams = matchForward(t, j + 1, "(", ")");
      if (closeParams == kNpos) continue;
      std::string param;
      const char* typeName = saveName ? "Writer" : "Reader";
      if (!paramListHas(t, j + 1, closeParams, typeName, &param)) continue;
      const std::size_t body = skipToBody(t, closeParams + 1);
      if (body == kNpos || !isP(t[body], "{")) continue;  // declaration only
      const std::size_t bodyClose = matchForward(t, body, "{", "}");
      if (bodyClose == kNpos) continue;
      SnapFn fn;
      fn.name = name;
      fn.suffix = name.substr(4);
      fn.isSave = saveName;
      fn.param = param;
      fn.file = fi;
      fn.line = t[j].line;
      fn.bodyOpen = body;
      fn.bodyClose = bodyClose;
      if (j >= 2 && isP(t[j - 1], "::") && t[j - 2].kind == Tok::Kind::Ident)
        fn.cls = t[j - 2].text;  // out-of-class definition
      else if (const ClassSpan* c = innermostClass(spans, fi, j))
        fn.cls = c->name;
      extractStream(t, fn);
      fns.push_back(std::move(fn));
    }
  }

  // Attribute transient markers to their innermost class by line range.
  for (TransientMark& m : transients) {
    const ClassSpan* best = nullptr;
    const std::vector<Tok>& t = lexed[m.file].toks;
    for (const ClassSpan& c : spans) {
      if (c.file != m.file) continue;
      if (t[c.open].line <= m.line && m.line <= t[c.close].line)
        if (!best || c.open > best->open) best = &c;
    }
    if (best) m.cls = best->name;
  }

  // ---- pair the streams -------------------------------------------------
  std::map<std::string, SnapPair> paired;
  std::map<std::string, const SnapFn*> saveFns, loadFns;
  for (const SnapFn& fn : fns) {
    const std::string key = fn.cls + "::" + fn.suffix;
    SnapPair& p = paired[key];
    p.key = key;
    if (fn.isSave) {
      if (!p.hasSave) {  // first definition wins
        p.hasSave = true;
        p.saveFile = files[fn.file].path;
        p.saveLine = fn.line;
        saveFns[key] = &fn;
      }
    } else if (!p.hasLoad) {
      p.hasLoad = true;
      p.loadFile = files[fn.file].path;
      p.loadLine = fn.line;
      loadFns[key] = &fn;
    }
  }

  std::vector<Diagnostic> findings;
  auto add = [&](const char* code, Severity sev, std::string msg,
                 const std::string& file, int line) -> Diagnostic& {
    Diagnostic& d = findings.emplace_back(code, sev, std::move(msg));
    d.where = SourceLocation{file, line};
    return d;
  };

  auto join = [](const std::vector<Op>& ops) {
    std::string s;
    for (const Op& op : ops) {
      if (op.spell[0] == '!') continue;  // sentinel, not a stream element
      if (!s.empty()) s += ',';
      s += op.spell;
    }
    return s;
  };

  for (auto& [key, p] : paired) {
    const SnapFn* sf = p.hasSave ? saveFns[key] : nullptr;
    const SnapFn* lf = p.hasLoad ? loadFns[key] : nullptr;
    if (sf) p.saveStream = join(sf->ops);
    if (lf) p.loadStream = join(lf->ops);
    p.fingerprint = ckpt::fnv1a64(p.saveStream);

    if (p.hasSave != p.hasLoad) {
      add("MB-SNP-001", Severity::Error,
          key + ": " + (p.hasSave ? "save" : "load") +
              "() has no matching " + (p.hasSave ? "load" : "save") + "()",
          p.hasSave ? p.saveFile : p.loadFile,
          p.hasSave ? p.saveLine : p.loadLine);
      continue;
    }
    std::vector<Op> lops;
    for (const Op& op : lf->ops) {
      if (op.spell == "!unguarded-size") {
        add("MB-SNP-005", Severity::Error,
            key + ": load() sizes a loop/container from a raw u32/u64 read "
                  "with no fail() guard — use Reader::count() or validate "
                  "and fail()",
            p.loadFile, op.line);
        continue;
      }
      lops.push_back(op);
    }
    const std::vector<Op>& sops = sf->ops;
    const std::size_t n = std::min(sops.size(), lops.size());
    std::size_t diverge = kNpos;
    for (std::size_t i = 0; i < n; ++i)
      if (sops[i].spell != lops[i].spell) { diverge = i; break; }
    if (diverge == kNpos && sops.size() != lops.size()) diverge = n;
    if (diverge != kNpos) {
      Diagnostic& d = add(
          "MB-SNP-001", Severity::Error,
          key + ": save/load streams diverge at element " +
              std::to_string(diverge + 1) + " (save: " +
              (diverge < sops.size() ? sops[diverge].spell : "<end>") +
              ", load: " +
              (diverge < lops.size() ? lops[diverge].spell : "<end>") + ")",
          p.loadFile, diverge < lops.size() ? lops[diverge].line : p.loadLine);
      d.with("save", p.saveStream.empty() ? "<empty>" : p.saveStream);
      d.with("load", p.loadStream.empty() ? "<empty>" : p.loadStream);
      d.with("saveAt", p.saveFile + ":" + std::to_string(p.saveLine));
    }
  }

  // ---- sections (MB-SNP-002) -------------------------------------------
  {
    std::map<std::string, const SectionName*> saveByName, loadByName;
    for (const SectionName& s : saveSections)
      if (!saveByName.count(s.name)) saveByName[s.name] = &s;
    for (const SectionName& s : loadSections)
      if (!loadByName.count(s.name)) loadByName[s.name] = &s;
    for (const auto& [name, s] : saveByName)
      if (!loadByName.count(name))
        add("MB-SNP-002", Severity::Error,
            "section \"" + name +
                "\" is written (addSection) but never loaded "
                "(loadSection/.section)",
            files[s->file].path, s->line);
    for (const auto& [name, s] : loadByName)
      if (!saveByName.count(name))
        add("MB-SNP-002", Severity::Error,
            "section \"" + name + "\" is loaded but never written (addSection)",
            files[s->file].path, s->line);
  }

  // ---- completeness (MB-SNP-003 / 006 / stale-transient 008) -----------
  std::set<std::string> pairClasses;
  for (const SnapFn& fn : fns)
    if (!fn.cls.empty()) pairClasses.insert(fn.cls);

  for (const std::string& cls : pairClasses) {
    std::set<std::string> inSave, inLoad;
    for (const SnapFn& fn : fns) {
      if (fn.cls != cls) continue;
      (fn.isSave ? inSave : inLoad).insert(fn.idents.begin(), fn.idents.end());
    }
    std::vector<Member> members;
    std::size_t declFile = kNpos;
    for (const ClassSpan& c : spans) {
      if (c.name != cls) continue;
      if (declFile == kNpos) declFile = c.file;
      collectMembers(lexed[c.file].toks, c, members);
    }
    if (members.empty()) continue;

    std::vector<BodySpan> bodies;
    auto isStreamBody = [&](std::size_t fi, std::size_t open) {
      for (const SnapFn& fn : fns)
        if (fn.file == fi && fn.bodyOpen == open) return true;
      return false;
    };
    // In-class method bodies.
    for (const ClassSpan& c : spans) {
      if (c.name != cls) continue;
      const std::vector<Tok>& t = lexed[c.file].toks;
      std::size_t j = c.open + 1;
      while (j < c.close) {
        if (isP(t[j], "(")) {
          const std::size_t endP = matchForward(t, j, "(", ")");
          if (endP == kNpos) break;
          const std::string fname =
              (j > 0 && t[j - 1].kind == Tok::Kind::Ident) ? t[j - 1].text : "";
          const std::size_t body = skipToBody(t, endP + 1);
          if (body != kNpos && body < c.close && isP(t[body], "{")) {
            const std::size_t bodyClose = matchForward(t, body, "{", "}");
            if (bodyClose != kNpos) {
              const bool ctor =
                  fname == cls || (j >= 2 && isP(t[j - 2], "~"));
              if (!ctor && !fname.empty() && !isStreamBody(c.file, body))
                bodies.push_back({c.file, body, bodyClose});
              j = bodyClose + 1;
              continue;
            }
          }
          j = endP + 1;
          continue;
        }
        if (isP(t[j], "{")) {  // nested type / initializer: step over
          const std::size_t end = matchForward(t, j, "{", "}");
          if (end == kNpos) break;
          j = end + 1;
          continue;
        }
        ++j;
      }
    }
    // Out-of-class definitions: Cls::name(...) {...} anywhere.
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
      const std::vector<Tok>& t = lexed[fi].toks;
      for (std::size_t j = 2; j + 1 < t.size(); ++j) {
        if (!isP(t[j + 1], "(") || t[j].kind != Tok::Kind::Ident) continue;
        if (!isP(t[j - 1], "::") || !isI(t[j - 2], cls.c_str())) continue;
        if (j >= 3 && (isP(t[j - 3], ".") || isP(t[j - 3], "->"))) continue;
        const std::size_t endP = matchForward(t, j + 1, "(", ")");
        if (endP == kNpos) continue;
        const std::size_t body = skipToBody(t, endP + 1);
        if (body == kNpos || !isP(t[body], "{")) continue;
        const std::size_t bodyClose = matchForward(t, body, "{", "}");
        if (bodyClose == kNpos) continue;
        if (t[j].text != cls && !isStreamBody(fi, body))
          bodies.push_back({fi, body, bodyClose});
      }
    }

    std::set<std::string> transientMembers;
    for (const TransientMark& m : transients)
      if (m.cls == cls) transientMembers.insert(m.member);

    std::set<std::string> seen;  // de-dup multi-span member lists
    for (const Member& m : members) {
      if (!seen.insert(m.name).second) continue;
      const bool annotated = transientMembers.count(m.name) > 0;
      if (inSave.count(m.name) || inLoad.count(m.name)) {
        if (!inSave.count(m.name) && !annotated)
          add("MB-SNP-006", Severity::Warning,
              cls + "::" + m.name +
                  " is rebuilt in load() but absent from save() — declare "
                  "MB_SNAP_TRANSIENT(" +
                  m.name + ", \"...\") to record that it is derived state",
              declFile == kNpos ? "" : files[declFile].path, m.line);
        continue;
      }
      if (annotated) continue;
      bool mutated = false;
      for (const BodySpan& b : bodies)
        if (rangeMutates(lexed[b.file].toks, b.open, b.close, m.name)) {
          mutated = true;
          break;
        }
      if (mutated)
        add("MB-SNP-003", Severity::Error,
            cls + "::" + m.name +
                " is mutated outside save/load but never serialized — "
                "serialize it or declare MB_SNAP_TRANSIENT(" +
                m.name + ", \"...\")",
            declFile == kNpos ? "" : files[declFile].path, m.line);
    }

    for (const TransientMark& m : transients)
      if (m.cls == cls && inSave.count(m.member))
        add("MB-SNP-008", Severity::Warning,
            "MB_SNAP_TRANSIENT(" + m.member + ") in " + cls +
                " is stale: save() serializes this member",
            files[m.file].path, m.line);
  }

  // ---- annotation well-formedness (MB-SNP-007) -------------------------
  for (const TransientMark& m : transients) {
    if (m.reason.empty()) {
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_TRANSIENT(" + m.member + ") needs a non-empty reason",
          files[m.file].path, m.line);
      continue;
    }
    if (m.member.empty() ||
        !std::all_of(m.member.begin(), m.member.end(), identChar)) {
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_TRANSIENT names no valid member identifier",
          files[m.file].path, m.line);
      continue;
    }
    if (m.cls.empty()) {
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_TRANSIENT(" + m.member +
              ") must appear inside a class body",
          files[m.file].path, m.line);
      continue;
    }
    bool found = false;
    for (const ClassSpan& c : spans) {
      if (c.name != m.cls) continue;
      std::vector<Member> members;
      collectMembers(lexed[c.file].toks, c, members);
      for (const Member& mm : members)
        if (mm.name == m.member) { found = true; break; }
      if (found) break;
    }
    if (!found)
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_TRANSIENT(" + m.member + "): " + m.cls +
              " declares no such data member",
          files[m.file].path, m.line);
  }
  for (const AllowMark& a : allows) {
    const Marker& m = a.marker;
    if (!hasCodeShape(m.first, "MB-SNP-"))
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_ALLOW with malformed code \"" + m.first +
              "\" (want MB-SNP-0xx)",
          files[a.file].path, m.line);
    else if (m.reason.empty())
      add("MB-SNP-007", Severity::Error,
          "MB_SNAP_ALLOW(" + m.first + ") needs a non-empty reason",
          files[a.file].path, m.line);
  }

  // ---- fingerprint baseline (MB-SNP-004) -------------------------------
  pairs_.clear();
  for (auto& [key, p] : paired) pairs_.push_back(p);
  if (opts_.haveBaseline && opts_.snapshotVersion >= 0) {
    int baseVersion = -1;
    std::map<std::string, std::string> baseHash;
    std::istringstream in(opts_.baselineContents);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string a, b;
      ls >> a >> b;
      if (a == "version") baseVersion = std::atoi(b.c_str());
      else if (!a.empty() && !b.empty()) baseHash[a] = b;
    }
    if (baseVersion == opts_.snapshotVersion) {
      std::set<std::string> matched;
      for (const SnapPair& p : pairs_) {
        if (!p.hasSave) continue;
        auto it = baseHash.find(p.key);
        if (it == baseHash.end()) {
          add("MB-SNP-004", Severity::Warning,
              p.key + ": new save stream not in the fingerprint baseline — "
                      "run --write-baseline after review",
              p.saveFile, p.saveLine);
          continue;
        }
        matched.insert(p.key);
        if (it->second != hex16(p.fingerprint)) {
          Diagnostic& d = add(
              "MB-SNP-004", Severity::Error,
              p.key + ": save stream changed without a kSnapshotVersion "
                      "bump (snapshot-compatibility rule) — bump the "
                      "version or restore the layout",
              p.saveFile, p.saveLine);
          d.with("baseline", it->second);
          d.with("current", hex16(p.fingerprint));
          d.with("stream", p.saveStream.empty() ? "<empty>" : p.saveStream);
        }
      }
      for (const auto& [bkey, bhash] : baseHash) {
        (void)bhash;
        if (!matched.count(bkey))
          add("MB-SNP-004", Severity::Warning,
              bkey + ": stale baseline entry (pair no longer exists) — "
                     "run --write-baseline",
              "", 0);
      }
    }
  }

  // ---- suppressions (unused ones are MB-SNP-008) -----------------------
  suppressions_.clear();
  for (const AllowMark& a : allows) {
    const Marker& m = a.marker;
    if (!hasCodeShape(m.first, "MB-SNP-") || m.reason.empty()) continue;  // 007 above
    suppressions_.push_back({m.first, m.reason, files[a.file].path, m.line,
                             m.name == "MB_SNAP_ALLOW_FILE", 0});
  }
  reportFindings(engine_, std::move(findings), suppressions_, "MB-SNP-008",
                 [](const std::string& code) {
                   return "unused suppression for " + code +
                          " — remove it or it hides future findings";
                 });
}

}  // namespace mb::analysis
