// Shared diagnostic-JSON schema contract. mblint and mbaudit render
// findings through Diagnostic::json(); this test runs each shipped binary
// with --json against an input known to produce findings and round-trips
// the bytes through the in-repo parser (common/json_mini.hpp), pinning the
// schema downstream consumers rely on:
//   {"code":"MB-XXX-NNN","severity":"note|warning|error|fatal",
//    "message":..., "context":{...}}
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/json_mini.hpp"

namespace mb {
namespace {

using json::JParser;
using json::JVal;

std::string runTool(const std::string& cmd) {
  // Findings make the tools exit 1; stdout is still the JSON document.
  FILE* pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  pclose(pipe);
  return out;
}

bool looksLikeCode(const std::string& c) {
  // MB-XXX-NNN: stable registry shape shared by every analysis.
  if (c.size() != 10 || c.compare(0, 3, "MB-") != 0 || c[6] != '-') return false;
  for (int i = 3; i < 6; ++i)
    if (std::isupper(static_cast<unsigned char>(c[i])) == 0) return false;
  for (int i = 7; i < 10; ++i)
    if (std::isdigit(static_cast<unsigned char>(c[i])) == 0) return false;
  return true;
}

bool validSeverity(const std::string& s) {
  return s == "note" || s == "warning" || s == "error" || s == "fatal";
}

/// Assert one diagnostics array obeys the schema; returns how many entries
/// it held so callers can require findings were actually exercised.
int checkDiagnostics(const JVal& arr, const std::string& toolName) {
  EXPECT_EQ(arr.t, JVal::T::Arr) << toolName;
  for (const JVal& d : arr.arr) {
    EXPECT_EQ(d.t, JVal::T::Obj) << toolName;
    const JVal* code = d.get("code");
    const JVal* sev = d.get("severity");
    const JVal* msg = d.get("message");
    const JVal* ctx = d.get("context");
    EXPECT_NE(code, nullptr) << toolName;
    EXPECT_NE(sev, nullptr) << toolName;
    EXPECT_NE(msg, nullptr) << toolName;
    EXPECT_NE(ctx, nullptr) << toolName;
    if (code == nullptr || sev == nullptr || msg == nullptr || ctx == nullptr)
      continue;
    EXPECT_EQ(code->t, JVal::T::Str);
    EXPECT_TRUE(looksLikeCode(code->s)) << toolName << ": " << code->s;
    EXPECT_TRUE(validSeverity(sev->s)) << toolName << ": " << sev->s;
    EXPECT_FALSE(msg->s.empty()) << toolName;
    EXPECT_EQ(ctx->t, JVal::T::Obj) << toolName;
  }
  return static_cast<int>(arr.arr.size());
}

JVal parseToolOutput(const std::string& cmd) {
  const std::string out = runTool(cmd);
  JVal root;
  JParser parser(out);
  EXPECT_TRUE(parser.parse(&root)) << cmd << " emitted unparseable JSON:\n"
                                   << out;
  EXPECT_EQ(root.t, JVal::T::Obj);
  const JVal* tool = root.get("tool");
  EXPECT_NE(tool, nullptr) << cmd;
  if (tool != nullptr) {
    EXPECT_NE(tool->s.find("microbank"), std::string::npos) << tool->s;
  }
  return root;
}

TEST(DiagJsonSchema, MblintAdHocConfigViolation) {
  // ib=3 sits below the line-offset floor: a guaranteed MB-MAP finding.
  const JVal root =
      parseToolOutput(std::string(MB_MBLINT_BIN) + " --nw=4 --nb=4 --ib=3 --json");
  const JVal* results = root.get("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->t, JVal::T::Arr);
  ASSERT_FALSE(results->arr.empty());
  int total = 0;
  for (const JVal& r : results->arr) {
    const JVal* diags = r.get("diagnostics");
    ASSERT_NE(diags, nullptr);
    total += checkDiagnostics(*diags, "mblint");
  }
  EXPECT_GE(total, 1);
}

TEST(DiagJsonSchema, MbauditSeededMutant) {
  // A recorded run with its trailer energy tampered: a guaranteed MB-AUD-019
  // finding.
  const std::string trace = ::testing::TempDir() + "mb_diag_schema_audit.mbc";
  ASSERT_EQ(std::system((std::string(MB_MBSIM_BIN) +
                         " --workload=429.mcf --instrs=2000 --record-cmds=" + trace +
                         " > /dev/null")
                            .c_str()),
            0);
  const JVal root = parseToolOutput(std::string(MB_MBAUDIT_BIN) + " " + trace +
                                    " --mutate=trailer-energy-tampered --json");
  std::remove(trace.c_str());
  const JVal* diags = root.get("diagnostics");
  ASSERT_NE(diags, nullptr);
  EXPECT_GE(checkDiagnostics(*diags, "mbaudit"), 1);
  bool seeded = false;
  for (const JVal& d : diags->arr) {
    const JVal* code = d.get("code");
    seeded = seeded || (code != nullptr && code->s == "MB-AUD-019");
  }
  EXPECT_TRUE(seeded) << "no MB-AUD-019 finding";
}

}  // namespace
}  // namespace mb
