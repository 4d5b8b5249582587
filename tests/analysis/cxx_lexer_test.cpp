// Unit tests for the shared lexical C++ front end. det_lint and snap_lint
// both sit on this tokenizer, so the conformance corners its header
// promises — raw strings, digit separators, spliced comments, uncombined
// angle brackets — are pinned here once rather than re-proved per analysis.
// The shared marker scanner and suppression matcher are driven through both
// analyses by one table of cases.
#include "analysis/cxx_lexer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/det_lint.hpp"
#include "analysis/snap_lint.hpp"

namespace mb::analysis::cxx {
namespace {

std::vector<std::string> tokenTexts(const std::string& src) {
  std::vector<std::string> out;
  for (const Token& t : lex(src).toks) out.push_back(t.text);
  return out;
}

const Token* findToken(const Lexed& lx, const std::string& text) {
  for (const Token& t : lx.toks)
    if (t.text == text) return &t;
  return nullptr;
}

TEST(CxxLexer, BasicTokenKinds) {
  const Lexed lx = lex("int x = 42 + y_;");
  ASSERT_EQ(lx.toks.size(), 7u);
  EXPECT_EQ(lx.toks[0].kind, Token::Kind::Ident);
  EXPECT_EQ(lx.toks[0].text, "int");
  EXPECT_EQ(lx.toks[3].kind, Token::Kind::Num);
  EXPECT_EQ(lx.toks[3].text, "42");
  EXPECT_EQ(lx.toks[5].text, "y_");
  EXPECT_EQ(lx.toks[6].kind, Token::Kind::Punct);
}

TEST(CxxLexer, RawStringLexesAsOneToken) {
  const Lexed lx = lex("auto s = R\"(no \" escape { here)\"; int after = 1;");
  const Token* after = findToken(lx, "after");
  ASSERT_NE(after, nullptr);
  // The raw string's unescaped quote and brace must not derail the lexer.
  bool sawStr = false;
  for (const Token& t : lx.toks)
    if (t.kind == Token::Kind::Str) {
      sawStr = true;
      EXPECT_EQ(t.text, "no \" escape { here");
    }
  EXPECT_TRUE(sawStr);
}

TEST(CxxLexer, RawStringWithDelimiterAndPrefix) {
  // u8R"xy(...)xy" — encoding prefix plus a custom delimiter; a plain )"
  // inside the body must not terminate it.
  const Lexed lx = lex("auto s = u8R\"xy(body )\" not end)xy\"; k;");
  const Token* k = findToken(lx, "k");
  ASSERT_NE(k, nullptr);
  bool sawStr = false;
  for (const Token& t : lx.toks)
    if (t.kind == Token::Kind::Str) {
      sawStr = true;
      EXPECT_EQ(t.text, "body )\" not end");
    }
  EXPECT_TRUE(sawStr);
}

TEST(CxxLexer, RawStringNewlinesCountTowardLines) {
  const Lexed lx = lex("auto s = R\"(a\nb\nc)\";\nint marker = 0;");
  const Token* marker = findToken(lx, "marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->line, 4);
}

TEST(CxxLexer, DigitSeparatorsStayInOneNumToken) {
  const Lexed lx = lex("std::int64_t big = 1'000'000;");
  const Token* num = nullptr;
  for (const Token& t : lx.toks)
    if (t.kind == Token::Kind::Num) num = &t;
  ASSERT_NE(num, nullptr);
  EXPECT_EQ(num->text, "1'000'000");
  // The separator apostrophes must not open character literals: the
  // terminating ';' survives as a token.
  EXPECT_TRUE(isP(lx.toks.back(), ";"));
}

TEST(CxxLexer, HexAndFloatNumbers) {
  const std::vector<std::string> t = tokenTexts("a = 0xFF; b = 1.5e-3;");
  EXPECT_NE(std::find(t.begin(), t.end(), "0xFF"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "1.5e-3"), t.end());
}

TEST(CxxLexer, LineSplicedLineCommentContinues) {
  // A backslash-newline splices the // comment onto the next line: `hidden`
  // is commented out, `visible` is not. (Phase-2 translation, [lex.phases].)
  const Lexed lx = lex("// spliced \\\nhidden = 1;\nvisible = 2;");
  EXPECT_EQ(findToken(lx, "hidden"), nullptr);
  const Token* visible = findToken(lx, "visible");
  ASSERT_NE(visible, nullptr);
  EXPECT_EQ(visible->line, 3);
  // The comment text retains both lines so suppression markers in the
  // continuation are still found.
  ASSERT_EQ(lx.comments.size(), 1u);
  EXPECT_NE(lx.comments[0].text.find("hidden"), std::string::npos);
}

TEST(CxxLexer, BlockCommentsStrippedButRetained) {
  const Lexed lx = lex("a; /* b = MB_SNAP_ALLOW\nstill comment */ c;");
  EXPECT_EQ(findToken(lx, "b"), nullptr);
  ASSERT_NE(findToken(lx, "c"), nullptr);
  EXPECT_EQ(findToken(lx, "c")->line, 2);
  ASSERT_EQ(lx.comments.size(), 1u);
  EXPECT_EQ(lx.comments[0].line, 1);
}

TEST(CxxLexer, PreprocessorLinesDropped) {
  const Lexed lx = lex("#include <map>\n#define FOO(x) (x)\nreal;");
  EXPECT_EQ(findToken(lx, "include"), nullptr);
  EXPECT_EQ(findToken(lx, "FOO"), nullptr);
  ASSERT_NE(findToken(lx, "real"), nullptr);
  EXPECT_EQ(findToken(lx, "real")->line, 3);
}

TEST(CxxLexer, AngleBracketsNeverCombined) {
  // Every '<'/'>' must be its own token so template-depth counting works.
  const std::vector<std::string> t = tokenTexts("std::map<int, std::vector<int>> m;");
  int open = 0, close = 0;
  for (const std::string& s : t) {
    if (s == "<") ++open;
    if (s == ">") ++close;
  }
  EXPECT_EQ(open, 2);
  EXPECT_EQ(close, 2);
}

TEST(CxxLexer, MatchForwardAndAngles) {
  const Lexed lx = lex("f(a, g(b), c) { h<int, k<j>>(); }");
  ASSERT_TRUE(isP(lx.toks[1], "("));
  const std::size_t close = matchForward(lx.toks, 1, "(", ")");
  ASSERT_NE(close, kNpos);
  EXPECT_TRUE(isP(lx.toks[close], ")"));
  EXPECT_TRUE(isP(lx.toks[close + 1], "{"));
  // matchAngles from the h<...: lands on the outer '>' of k<j>>.
  std::size_t lt = kNpos;
  for (std::size_t i = 0; i < lx.toks.size(); ++i)
    if (isI(lx.toks[i], "h")) { lt = i + 1; break; }
  ASSERT_NE(lt, kNpos);
  const std::size_t gt = matchAngles(lx.toks, lt);
  ASSERT_NE(gt, kNpos);
  EXPECT_TRUE(isP(lx.toks[gt], ">"));
  EXPECT_TRUE(isP(lx.toks[gt + 1], "("));
}

TEST(CxxLexer, MatchAnglesBailsAtStatementBoundary) {
  // `a < b; c > d` is comparisons, not a template: matchAngles must give up
  // at the ';' instead of pairing across statements.
  const Lexed lx = lex("a < b; c > d;");
  EXPECT_EQ(matchAngles(lx.toks, 1), kNpos);
}

TEST(CxxLexer, SkipToBodyHandlesQualifiersAndInitLists) {
  // const + member-initializer list, then the body.
  const Lexed lx = lex("X::X(int a) : m_(a), n_(0) { go(); }");
  const std::size_t closeParams = matchForward(lx.toks, 3, "(", ")");
  ASSERT_NE(closeParams, kNpos);
  const std::size_t body = skipToBody(lx.toks, closeParams + 1);
  ASSERT_NE(body, kNpos);
  EXPECT_TRUE(isP(lx.toks[body], "{"));

  // Declarations resolve to their ';'.
  const Lexed decl = lex("void save(Writer& w) const;");
  const std::size_t dClose = matchForward(decl.toks, 2, "(", ")");
  ASSERT_NE(dClose, kNpos);
  const std::size_t dBody = skipToBody(decl.toks, dClose + 1);
  ASSERT_NE(dBody, kNpos);
  EXPECT_TRUE(isP(decl.toks[dBody], ";"));
}

TEST(CxxLexer, CharLiteralsAndEscapes) {
  const Lexed lx = lex("char c = '\\''; char d = '\"'; after;");
  EXPECT_NE(findToken(lx, "after"), nullptr);
}

TEST(CxxLexer, CollectSourceFilesIsSortedAndFiltered) {
  // The repo's own tree is the fixture, walked the way each analysis walks
  // it (snap: src; det: src, bench, tools): deterministic lexicographic
  // order, and the exclude-suffix hook drops the annotation vocabulary.
#ifdef MB_SOURCE_ROOT
  const std::vector<std::vector<std::string>> walks = {{"src"},
                                                       {"src", "bench", "tools"}};
  for (const std::vector<std::string>& subdirs : walks) {
    const auto all = collectSourceFiles(MB_SOURCE_ROOT, subdirs);
    ASSERT_GT(all.size(), 50u);
    for (std::size_t i = 1; i < all.size(); ++i) EXPECT_LT(all[i - 1], all[i]);
    const auto filtered =
        collectSourceFiles(MB_SOURCE_ROOT, subdirs, {"common/ownership.hpp"});
    EXPECT_EQ(filtered.size(), all.size() - 1);
    for (const std::string& p : filtered)
      EXPECT_EQ(p.find("common/ownership.hpp"), std::string::npos);
  }
#endif
}

// ---------------------------------------------------------------------------
// Annotation markers: one table of cases, run through both analyses.

/// One analysis's marker vocabulary and a snippet whose last line trips
/// exactly one error finding.
struct Vocabulary {
  const char* analysis;
  std::string allow;      // same/next-line marker
  std::string allowFile;  // file-scope marker
  std::string prefix;     // registry prefix, "MB-DET-"
  std::string code;       // the snippet's finding
  std::string otherCode;  // a valid code that does not fire in the snippet
  std::string prelude;    // lines before the finding line
  std::string finding;
};

enum class Place { SameLine, NextLine, FileScope, Far };
enum class Arg { Own, Other, NoReason, Prose };

struct MarkerCase {
  const char* what;
  Place place;
  bool comment;  // comment form, else code form
  Arg arg;
  bool suppressed;    // the finding is suppressed
  const char* extra;  // a further code the analysis reports (007/008)
};

constexpr MarkerCase kMarkerCases[] = {
    {"same line, code form", Place::SameLine, false, Arg::Own, true, nullptr},
    {"same line, comment form", Place::SameLine, true, Arg::Own, true, nullptr},
    {"next line, code form", Place::NextLine, false, Arg::Own, true, nullptr},
    {"next line, comment form", Place::NextLine, true, Arg::Own, true, nullptr},
    {"file scope, code form", Place::FileScope, false, Arg::Own, true, nullptr},
    {"file scope, comment form", Place::FileScope, true, Arg::Own, true, nullptr},
    {"a different code does not apply", Place::NextLine, true, Arg::Other, false, "008"},
    {"a prose mention is ignored", Place::NextLine, true, Arg::Prose, false, nullptr},
    {"a marker two lines away is unused", Place::Far, false, Arg::Own, false, "008"},
    {"a missing reason is malformed", Place::NextLine, false, Arg::NoReason, false, "007"},
};

std::string markerSource(const Vocabulary& v, const MarkerCase& c) {
  std::string marker;
  if (c.arg == Arg::Prose) {
    marker = "// the " + v.allow + " marker needs a reason";
  } else {
    marker = (c.place == Place::FileScope ? v.allowFile : v.allow) + "(" + v.prefix +
             (c.arg == Arg::Other ? v.otherCode : v.code);
    if (c.arg != Arg::NoReason) marker += ", \"why\"";
    marker += ")";
    if (c.comment) marker = "// " + marker;
  }
  switch (c.place) {
    case Place::SameLine: return v.prelude + v.finding + " " + marker + "\n";
    case Place::NextLine: return v.prelude + marker + "\n" + v.finding + "\n";
    case Place::FileScope:
    case Place::Far: return marker + "\n\n\n" + v.prelude + v.finding + "\n";
  }
  return "";
}

template <typename Linter>
void checkMarkerCases(const Vocabulary& v) {
  for (const MarkerCase& c : kMarkerCases) {
    SCOPED_TRACE(std::string(v.analysis) + ": " + c.what);
    const std::string src = markerSource(v, c);
    DiagnosticEngine engine;
    Linter linter(engine);
    linter.run({{"t.cpp", src}});
    std::vector<std::string> codes;
    for (const Diagnostic& d : engine.diagnostics()) codes.push_back(d.code);
    std::sort(codes.begin(), codes.end());
    std::vector<std::string> want;
    if (!c.suppressed) want.push_back(v.prefix + v.code);
    if (c.extra != nullptr) want.push_back(v.prefix + c.extra);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(codes, want) << src;

    const std::vector<Suppression>& sups = linter.suppressions();
    const bool wellFormed = c.arg == Arg::Own || c.arg == Arg::Other;
    ASSERT_EQ(sups.size(), wellFormed ? 1u : 0u) << src;
    if (!wellFormed) continue;
    EXPECT_EQ(sups[0].uses, c.suppressed ? 1 : 0);
    EXPECT_EQ(sups[0].fileScope, c.place == Place::FileScope);
    EXPECT_EQ(sups[0].reason, "why");
  }
}

TEST(Markers, DetVocabulary) {
  checkMarkerCases<DetLinter>({"det", "MB_DET_ALLOW", "MB_DET_ALLOW_FILE", "MB-DET-",
                               "004", "003", "", "static int counter = 0;"});
}

TEST(Markers, SnapVocabulary) {
  checkMarkerCases<SnapLinter>(
      {"snap", "MB_SNAP_ALLOW", "MB_SNAP_ALLOW_FILE", "MB-SNP-", "001", "002",
       "inline void saveX(ckpt::Writer& w) { w.u32(1); }\n",
       "inline void loadX(ckpt::Reader& r) { r.u64(); }"});
}

}  // namespace
}  // namespace mb::analysis::cxx
