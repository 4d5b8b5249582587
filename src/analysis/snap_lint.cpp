#include "analysis/snap_lint.hpp"

#include <map>
#include <string>

namespace mb::analysis {
namespace {

using cxx::isI;
using cxx::isP;
using cxx::kNpos;
using cxx::matchForward;
using Tok = cxx::Token;

/// True when any identifier token in (open, close) equals `name`.
bool rangeHasIdent(const std::vector<Tok>& t, std::size_t open, std::size_t close,
                   const std::string& name) {
  for (std::size_t j = open + 1; j < close; ++j)
    if (t[j].kind == Tok::Kind::Ident && t[j].text == name) return true;
  return false;
}

/// The name of the `Reader&` parameter in the list (open, close); empty when
/// there is none or it is unnamed.
std::string readerParam(const std::vector<Tok>& t, std::size_t open, std::size_t close) {
  for (std::size_t j = open + 1; j + 2 < close; ++j)
    if (isI(t[j], "Reader") && isP(t[j + 1], "&") && t[j + 2].kind == Tok::Kind::Ident)
      return t[j + 2].text;
  return "";
}

/// Line of the first counted loop or resize/reserve in the body (open,
/// close) sized by a variable assigned earlier from a raw `param.u32()` or
/// `param.u64()`; 0 when there is none or the body calls `param.fail()`.
int unguardedLengthLine(const std::vector<Tok>& t, std::size_t open, std::size_t close,
                        const std::string& param) {
  std::map<std::string, std::size_t> rawSizeVars;  // variable -> token of its read
  for (std::size_t j = open + 1; j + 1 < close; ++j) {
    if (t[j].kind != Tok::Kind::Ident || !isP(t[j + 1], "(") || j < 2 ||
        !(isP(t[j - 1], ".") || isP(t[j - 1], "->")) || !isI(t[j - 2], param.c_str()))
      continue;
    if (t[j].text == "fail") return 0;
    if ((t[j].text == "u32" || t[j].text == "u64") && j >= 4 && isP(t[j - 3], "=") &&
        t[j - 4].kind == Tok::Kind::Ident)
      rawSizeVars.emplace(t[j - 4].text, j);
  }
  if (rawSizeVars.empty()) return 0;
  for (std::size_t j = open + 1; j + 1 < close; ++j) {
    if (!(isI(t[j], "for") || isI(t[j], "resize") || isI(t[j], "reserve")) ||
        !isP(t[j + 1], "("))
      continue;
    const std::size_t end = matchForward(t, j + 1, "(", ")");
    if (end == kNpos) continue;
    // A range-for has no ';' in its header: its loop variable is not a
    // wire-supplied count even if it shadows one.
    bool counted = !isI(t[j], "for");
    for (std::size_t k = j + 2; k < end && !counted; ++k) counted = isP(t[k], ";");
    if (!counted) continue;
    for (const auto& [var, readAt] : rawSizeVars)
      if (readAt < j && rangeHasIdent(t, j + 1, end, var)) return t[j].line;
  }
  return 0;
}

}  // namespace

void lintLoadLengths(const std::vector<SourceFile>& files, DiagnosticEngine& engine) {
  for (const SourceFile& f : files) {
    const std::vector<Tok> t = cxx::lex(f.contents);
    for (std::size_t j = 0; j + 1 < t.size(); ++j) {
      if (t[j].kind != Tok::Kind::Ident || t[j].text.compare(0, 4, "load") != 0 ||
          !isP(t[j + 1], "("))
        continue;
      // A definition's name is never preceded by call-position tokens.
      if (j > 0 && (isP(t[j - 1], ".") || isP(t[j - 1], "->") || isP(t[j - 1], "=") ||
                    isP(t[j - 1], "(") || isP(t[j - 1], ",") || isI(t[j - 1], "return")))
        continue;
      const std::size_t closeParams = matchForward(t, j + 1, "(", ")");
      if (closeParams == kNpos) continue;
      const std::string param = readerParam(t, j + 1, closeParams);
      if (param.empty()) continue;
      const std::size_t body = cxx::skipToBody(t, closeParams + 1);
      if (body == kNpos || !isP(t[body], "{")) continue;  // declaration only
      const std::size_t bodyClose = matchForward(t, body, "{", "}");
      if (bodyClose == kNpos) continue;
      const int line = unguardedLengthLine(t, body, bodyClose, param);
      if (line == 0) continue;
      std::string fn = t[j].text + "()";
      if (j >= 2 && isP(t[j - 1], "::") && t[j - 2].kind == Tok::Kind::Ident)
        fn = t[j - 2].text + "::" + fn;
      Diagnostic d("MB-SNP-005", Severity::Error,
                   fn + " sizes a loop or container from a raw u32/u64 read with no "
                        "fail() guard — use Reader::count() or validate and fail()");
      d.where = SourceLocation{f.path, line};
      engine.report(std::move(d));
    }
  }
  engine.sortByLocation();
}

}  // namespace mb::analysis
