// Unit tests for the lexical C++ front end under snap_lint: the
// conformance corners its header promises — raw strings, digit separators,
// spliced comments — and the bracket helpers.
#include "analysis/cxx_lexer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace mb::analysis::cxx {
namespace {

std::vector<std::string> tokenTexts(const std::string& src) {
  std::vector<std::string> out;
  for (const Token& t : lex(src)) out.push_back(t.text);
  return out;
}

const Token* findToken(const std::vector<Token>& lx, const std::string& text) {
  for (const Token& t : lx)
    if (t.text == text) return &t;
  return nullptr;
}

TEST(CxxLexer, BasicTokenKinds) {
  const std::vector<Token> lx = lex("int x = 42 + y_;");
  ASSERT_EQ(lx.size(), 7u);
  EXPECT_EQ(lx[0].kind, Token::Kind::Ident);
  EXPECT_EQ(lx[0].text, "int");
  EXPECT_EQ(lx[3].kind, Token::Kind::Num);
  EXPECT_EQ(lx[3].text, "42");
  EXPECT_EQ(lx[5].text, "y_");
  EXPECT_EQ(lx[6].kind, Token::Kind::Punct);
}

TEST(CxxLexer, RawStringLexesAsOneToken) {
  const std::vector<Token> lx = lex("auto s = R\"(no \" escape { here)\"; int after = 1;");
  const Token* after = findToken(lx, "after");
  ASSERT_NE(after, nullptr);
  // The raw string's unescaped quote and brace must not derail the lexer.
  bool sawStr = false;
  for (const Token& t : lx)
    if (t.kind == Token::Kind::Str) {
      sawStr = true;
      EXPECT_EQ(t.text, "no \" escape { here");
    }
  EXPECT_TRUE(sawStr);
}

TEST(CxxLexer, RawStringWithDelimiterAndPrefix) {
  // u8R"xy(...)xy" — encoding prefix plus a custom delimiter; a plain )"
  // inside the body must not terminate it.
  const std::vector<Token> lx = lex("auto s = u8R\"xy(body )\" not end)xy\"; k;");
  const Token* k = findToken(lx, "k");
  ASSERT_NE(k, nullptr);
  bool sawStr = false;
  for (const Token& t : lx)
    if (t.kind == Token::Kind::Str) {
      sawStr = true;
      EXPECT_EQ(t.text, "body )\" not end");
    }
  EXPECT_TRUE(sawStr);
}

TEST(CxxLexer, RawStringNewlinesCountTowardLines) {
  const std::vector<Token> lx = lex("auto s = R\"(a\nb\nc)\";\nint marker = 0;");
  const Token* marker = findToken(lx, "marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->line, 4);
}

TEST(CxxLexer, DigitSeparatorsStayInOneNumToken) {
  const std::vector<Token> lx = lex("std::int64_t big = 1'000'000;");
  const Token* num = nullptr;
  for (const Token& t : lx)
    if (t.kind == Token::Kind::Num) num = &t;
  ASSERT_NE(num, nullptr);
  EXPECT_EQ(num->text, "1'000'000");
  // The separator apostrophes must not open character literals: the
  // terminating ';' survives as a token.
  EXPECT_TRUE(isP(lx.back(), ";"));
}

TEST(CxxLexer, HexAndFloatNumbers) {
  const std::vector<std::string> t = tokenTexts("a = 0xFF; b = 1.5e-3;");
  EXPECT_NE(std::find(t.begin(), t.end(), "0xFF"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "1.5e-3"), t.end());
}

TEST(CxxLexer, LineSplicedLineCommentContinues) {
  // A backslash-newline splices the // comment onto the next line: `hidden`
  // is commented out, `visible` is not. (Phase-2 translation, [lex.phases].)
  const std::vector<Token> lx = lex("// spliced \\\nhidden = 1;\nvisible = 2;");
  EXPECT_EQ(findToken(lx, "hidden"), nullptr);
  const Token* visible = findToken(lx, "visible");
  ASSERT_NE(visible, nullptr);
  EXPECT_EQ(visible->line, 3);
}

TEST(CxxLexer, BlockCommentsStripped) {
  const std::vector<Token> lx = lex("a; /* b = 1\nstill comment */ c;");
  EXPECT_EQ(findToken(lx, "b"), nullptr);
  ASSERT_NE(findToken(lx, "c"), nullptr);
  EXPECT_EQ(findToken(lx, "c")->line, 2);
}

TEST(CxxLexer, PreprocessorLinesDropped) {
  const std::vector<Token> lx = lex("#include <map>\n#define FOO(x) (x)\nreal;");
  EXPECT_EQ(findToken(lx, "include"), nullptr);
  EXPECT_EQ(findToken(lx, "FOO"), nullptr);
  ASSERT_NE(findToken(lx, "real"), nullptr);
  EXPECT_EQ(findToken(lx, "real")->line, 3);
}

TEST(CxxLexer, AngleBracketsNeverCombined) {
  // '>>' closing two template lists lexes as two '>' tokens, while the
  // punctuators snap_lint tests for ('::' before a qualified load name,
  // '->' before a reader call) stay one token each.
  const std::vector<std::string> t =
      tokenTexts("std::map<int, std::vector<int>> m; p->u64();");
  int open = 0, close = 0, scope = 0, arrow = 0;
  for (const std::string& s : t) {
    if (s == "<") ++open;
    if (s == ">") ++close;
    if (s == "::") ++scope;
    if (s == "->") ++arrow;
  }
  EXPECT_EQ(open, 2);
  EXPECT_EQ(close, 2);
  EXPECT_EQ(scope, 2);
  EXPECT_EQ(arrow, 1);
}

TEST(CxxLexer, MatchForward) {
  const std::vector<Token> lx = lex("f(a, g(b), c) { h(); }");
  ASSERT_TRUE(isP(lx[1], "("));
  const std::size_t close = matchForward(lx, 1, "(", ")");
  ASSERT_NE(close, kNpos);
  EXPECT_TRUE(isP(lx[close], ")"));
  EXPECT_TRUE(isP(lx[close + 1], "{"));
  EXPECT_EQ(matchForward(lx, close + 1, "{", "}"), lx.size() - 1);
}

TEST(CxxLexer, SkipToBodyStepsOverQualifiers) {
  // Qualifiers between the parameter list and the body.
  const std::vector<Token> lx = lex("void S::load(Reader& r) const noexcept { go(); }");
  const std::size_t closeParams = matchForward(lx, 4, "(", ")");
  ASSERT_NE(closeParams, kNpos);
  const std::size_t body = skipToBody(lx, closeParams + 1);
  ASSERT_NE(body, kNpos);
  EXPECT_TRUE(isP(lx[body], "{"));

  // Declarations resolve to their ';'.
  const std::vector<Token> decl = lex("void save(Writer& w) const;");
  const std::size_t dClose = matchForward(decl, 2, "(", ")");
  ASSERT_NE(dClose, kNpos);
  const std::size_t dBody = skipToBody(decl, dClose + 1);
  ASSERT_NE(dBody, kNpos);
  EXPECT_TRUE(isP(decl[dBody], ";"));
}

TEST(CxxLexer, CharLiteralsAndEscapes) {
  const std::vector<Token> lx = lex("char c = '\\''; char d = '\"'; after;");
  EXPECT_NE(findToken(lx, "after"), nullptr);
}

TEST(CxxLexer, CollectSourceFilesIsSorted) {
  // The repo's own tree is the fixture, walked the way mbstatic walks it:
  // deterministic lexicographic order, headers and sources only.
#ifdef MB_SOURCE_ROOT
  const auto all = collectSourceFiles(MB_SOURCE_ROOT, {"src"});
  ASSERT_GT(all.size(), 50u);
  for (std::size_t i = 1; i < all.size(); ++i) EXPECT_LT(all[i - 1], all[i]);
  for (const std::string& p : all) {
    const std::string ext = p.substr(p.size() - 4);
    EXPECT_TRUE(ext == ".hpp" || ext == ".cpp") << p;
  }
#endif
}

}  // namespace
}  // namespace mb::analysis::cxx
