#include "analysis/diagnostic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace mb::analysis {
namespace {

TEST(DiagnosticTest, TextRendererCarriesCodeSeverityAndContext) {
  Diagnostic d("MB-TIM-012", Severity::Error, "tRCD violated");
  d.with("command", "RD").with("at_ps", std::int64_t{17500});
  const std::string text = d.text();
  EXPECT_NE(text.find("error MB-TIM-012: tRCD violated"), std::string::npos);
  EXPECT_NE(text.find("command: RD"), std::string::npos);
  EXPECT_NE(text.find("at_ps: 17500"), std::string::npos);
}

TEST(DiagnosticTest, JsonRendererProducesStructuredObject) {
  Diagnostic d("MB-CFG-001", Severity::Error, "bad nW");
  d.with("nW", std::int64_t{3});
  EXPECT_EQ(d.json(),
            "{\"code\":\"MB-CFG-001\",\"severity\":\"error\","
            "\"message\":\"bad nW\",\"context\":{\"nW\":\"3\"}}");
}

TEST(DiagnosticTest, JsonEscapesSpecialCharacters) {
  Diagnostic d("MB-X", Severity::Note, "quote \" backslash \\ newline \n tab \t");
  const std::string j = d.json();
  EXPECT_NE(j.find("quote \\\" backslash \\\\ newline \\n tab \\t"),
            std::string::npos);
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(DiagnosticTest, ContextPreservesInsertionOrder) {
  Diagnostic d("MB-X", Severity::Note, "m");
  d.with("zeta", "1").with("alpha", "2");
  const std::string j = d.json();
  EXPECT_LT(j.find("zeta"), j.find("alpha"));
}

TEST(DiagnosticEngineTest, CountsBySeverityAndDetectsErrors) {
  DiagnosticEngine e;
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.hasErrors());
  e.report(Diagnostic("MB-A", Severity::Warning, "w"));
  EXPECT_FALSE(e.hasErrors());
  e.report(Diagnostic("MB-B", Severity::Error, "e"));
  e.report(Diagnostic("MB-C", Severity::Fatal, "f"));
  EXPECT_TRUE(e.hasErrors());
  EXPECT_EQ(e.count(Severity::Warning), 1);
  EXPECT_EQ(e.count(Severity::Error), 1);
  EXPECT_EQ(e.count(Severity::Fatal), 1);
  EXPECT_EQ(e.total(), 3);
  e.clear();
  EXPECT_TRUE(e.empty());
  EXPECT_TRUE(e.diagnostics().empty());
}

TEST(DiagnosticEngineTest, StorageCapKeepsExactCounts) {
  DiagnosticEngine e;
  e.maxStored = 4;
  for (int i = 0; i < 10; ++i) e.report(Diagnostic("MB-X", Severity::Error, "e"));
  EXPECT_EQ(e.diagnostics().size(), 4u);
  EXPECT_EQ(e.count(Severity::Error), 10);
}

TEST(DiagnosticEngineTest, OnReportStreamsBeforeStorage) {
  DiagnosticEngine e;
  int streamed = 0;
  e.onReport = [&](const Diagnostic& d) {
    ++streamed;
    EXPECT_EQ(d.code, "MB-Y");
  };
  e.report(Diagnostic("MB-Y", Severity::Note, "n"));
  EXPECT_EQ(streamed, 1);
}

TEST(DiagnosticEngineTest, RenderJsonIsAnArray) {
  DiagnosticEngine e;
  EXPECT_EQ(e.renderJson(), "[]");
  e.report(Diagnostic("MB-A", Severity::Note, "a"));
  e.report(Diagnostic("MB-B", Severity::Note, "b"));
  const std::string j = e.renderJson();
  EXPECT_EQ(j.front(), '[');
  EXPECT_EQ(j.back(), ']');
  EXPECT_NE(j.find("\"MB-A\""), std::string::npos);
  EXPECT_NE(j.find("},{"), std::string::npos);
}

TEST(JsonEscapeTest, NonAsciiBecomesUnicodeEscapes) {
  // "μbank" — U+03BC is a two-byte UTF-8 sequence.
  EXPECT_EQ(jsonEscape("\xce\xbc"
                       "bank"),
            "\\u03bcbank");
  // U+20AC (euro sign), three bytes.
  EXPECT_EQ(jsonEscape("\xe2\x82\xac"), "\\u20ac");
  // U+1F600, four bytes: beyond the BMP, must become a surrogate pair.
  EXPECT_EQ(jsonEscape("\xf0\x9f\x98\x80"), "\\ud83d\\ude00");
}

TEST(JsonEscapeTest, MalformedUtf8BecomesReplacementCharacter) {
  // Stray continuation byte, truncated sequence, overlong encoding: each
  // malformed byte collapses to U+FFFD instead of leaking raw bytes into
  // the JSON stream.
  EXPECT_EQ(jsonEscape("\x80"), "\\ufffd");
  EXPECT_EQ(jsonEscape("\xe2\x82"), "\\ufffd\\ufffd");
  EXPECT_EQ(jsonEscape("\xc0\xaf"), "\\ufffd\\ufffd");
  // DEL and other control bytes escape numerically.
  EXPECT_EQ(jsonEscape("\x7f"), "\\u007f");
  EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscapeTest, OutputIsAlwaysPrintableAscii) {
  std::string nasty;
  for (int b = 1; b < 256; ++b) nasty += static_cast<char>(b);
  const std::string out = jsonEscape(nasty);
  for (const char c : out) {
    const auto u = static_cast<unsigned char>(c);
    EXPECT_GE(u, 0x20u);
    EXPECT_LT(u, 0x7Fu);
  }
}

/// Minimal JSON string unescape (the inverse of jsonEscape for well-formed
/// input): resolves \uXXXX (including surrogate pairs) back to UTF-8.
std::string jsonUnescape(const std::string& s) {
  const auto hex4 = [&](std::size_t i) {
    return static_cast<std::uint32_t>(std::stoul(s.substr(i, 4), nullptr, 16));
  };
  std::string out;
  for (std::size_t i = 0; i < s.size();) {
    if (s[i] != '\\') { out += s[i++]; continue; }
    const char e = s[i + 1];
    if (e == 'u') {
      std::uint32_t cp = hex4(i + 2);
      i += 6;
      if (cp >= 0xD800 && cp <= 0xDBFF && i + 5 < s.size() && s[i] == '\\' &&
          s[i + 1] == 'u') {
        const std::uint32_t lo = hex4(i + 2);
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        i += 6;
      }
      if (cp < 0x80) {
        out += static_cast<char>(cp);
      } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      } else {
        out += static_cast<char>(0xF0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
      }
      continue;
    }
    switch (e) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      default: out += e; break;  // \" and \\ pass through
    }
    i += 2;
  }
  return out;
}

TEST(JsonEscapeTest, WellFormedInputRoundTrips) {
  const std::string cases[] = {
      "plain ascii",
      "quote \" slash \\ lines\nand\ttabs",
      "\xce\xbc"
      "bank report: \xe2\x82\xac 12",
      "\xf0\x9f\x98\x80 mixed \x01 control",
      std::string("embedded\0byte", 13),
  };
  for (const std::string& original : cases)
    EXPECT_EQ(jsonUnescape(jsonEscape(original)), original);
}

}  // namespace
}  // namespace mb::analysis
