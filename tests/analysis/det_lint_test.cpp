// Unit tests for the determinism & channel-ownership linter. The seeded
// fixture corpus under tests/analysis/det_fixtures/ exercises the shipped
// CLI (`mbstatic det --self-test`); these tests pin the engine's behaviour on
// in-memory snippets: each check's trigger and non-trigger, suppression
// scoping, annotation validation, and the ownership map.
#include "analysis/det_lint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mb::analysis {
namespace {

struct LintRun {
  DiagnosticEngine engine;
  OwnershipMap ownership;
  std::vector<Suppression> suppressions;
};

LintRun lint(const std::vector<SourceFile>& files) {
  LintRun run;
  DetLinter linter(run.engine);
  linter.run(files);
  run.ownership = linter.ownership();
  run.suppressions = linter.suppressions();
  return run;
}

LintRun lintOne(const std::string& contents, const std::string& path = "t.cpp") {
  return lint({{path, contents}});
}

int countCode(const LintRun& run, const std::string& code) {
  int n = 0;
  for (const Diagnostic& d : run.engine.diagnostics())
    if (d.code == code) ++n;
  return n;
}

TEST(DetLint, RangeForOverUnorderedTrips001) {
  const auto run = lintOne(R"(
    #include <unordered_map>
    int f(const std::unordered_map<int, int>& m) {
      int s = 0;
      for (const auto& kv : m) s += kv.second;
      return s;
    }
  )");
  EXPECT_EQ(countCode(run, "MB-DET-001"), 1);
  EXPECT_TRUE(run.engine.hasErrors());
}

TEST(DetLint, BeginWalkOverUnorderedTrips001) {
  const auto run = lintOne(R"(
    #include <unordered_set>
    int f(const std::unordered_set<int>& s) { return *s.begin(); }
  )");
  EXPECT_EQ(countCode(run, "MB-DET-001"), 1);
}

TEST(DetLint, UnorderedAliasIsTrackedThroughUsing) {
  const auto run = lintOne(R"(
    #include <unordered_map>
    using Table = std::unordered_map<int, int>;
    int f(const Table& t) {
      int s = 0;
      for (const auto& kv : t) s += kv.second;
      return s;
    }
  )");
  EXPECT_EQ(countCode(run, "MB-DET-001"), 1);
}

TEST(DetLint, MemberUsedBeforeDeclarationStillTrips001) {
  // Class methods often precede the member declarations they iterate.
  const auto run = lintOne(R"(
    #include <unordered_map>
    class C {
     public:
      int sum() const {
        int s = 0;
        for (const auto& kv : table_) s += kv.second;
        return s;
      }
     private:
      std::unordered_map<int, int> table_;
    };
  )");
  EXPECT_EQ(countCode(run, "MB-DET-001"), 1);
}

TEST(DetLint, OrderedMapIterationIsClean) {
  const auto run = lintOne(R"(
    #include <map>
    int f(const std::map<int, int>& m) {
      int s = 0;
      for (const auto& kv : m) s += kv.second;
      return s;
    }
  )");
  EXPECT_TRUE(run.engine.empty());
}

TEST(DetLint, PointerKeyTrips002) {
  const auto run = lintOne(R"(
    #include <map>
    struct Node { int id; };
    std::map<Node*, int> rank;
  )");
  EXPECT_EQ(countCode(run, "MB-DET-002"), 1);
}

TEST(DetLint, UintptrLaunderingTrips002) {
  const auto run = lintOne(R"(
    #include <cstdint>
    unsigned long long f(const int* p) {
      return reinterpret_cast<std::uintptr_t>(p);
    }
  )");
  EXPECT_EQ(countCode(run, "MB-DET-002"), 1);
}

TEST(DetLint, ValueSideFlatMapIsClean) {
  const auto run = lintOne(R"(
    #include "common/flat_map.hpp"
    FlatMap<long long, int> byKey;
  )");
  EXPECT_TRUE(run.engine.empty());
}

TEST(DetLint, RandCallTrips003) {
  const auto run = lintOne("int f() { return rand() % 4; }");
  EXPECT_EQ(countCode(run, "MB-DET-003"), 1);
}

TEST(DetLint, SteadyClockTrips003) {
  const auto run = lintOne(
      "long long f() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }");
  EXPECT_EQ(countCode(run, "MB-DET-003"), 1);
}

TEST(DetLint, MemberNamedTimeIsNotMistakenForLibcTime) {
  const auto run = lintOne("int f(const Event& e) { return e.time(); }");
  EXPECT_TRUE(run.engine.empty());
}

TEST(DetLint, ClockAllowlistSuppresses003ByPathSuffix) {
  const std::string src = "long long f() { return std::chrono::steady_clock::now()"
                          ".time_since_epoch().count(); }";
  const auto flagged = lint({{"src/other.cpp", src}});
  const auto allowed = lint({{"src/common/rng.hpp", src}});
  EXPECT_EQ(countCode(flagged, "MB-DET-003"), 1);
  EXPECT_TRUE(allowed.engine.empty());
}

TEST(DetLint, MutableStaticTrips004) {
  const auto run = lintOne("int next() { static int counter = 0; return ++counter; }");
  EXPECT_EQ(countCode(run, "MB-DET-004"), 1);
}

TEST(DetLint, ThreadLocalTrips004Once) {
  const auto run = lintOne("inline thread_local bool g_active = false;");
  EXPECT_EQ(countCode(run, "MB-DET-004"), 1);
}

TEST(DetLint, ConstexprAndConstStaticsAreClean) {
  const auto run = lintOne(R"(
    static constexpr int kWays = 8;
    static const char* kName = "mb";
    int f() { static constexpr long kMask = 0xff; return kWays + (kName != nullptr) + kMask; }
  )");
  EXPECT_TRUE(run.engine.empty());
}

TEST(DetLint, StaticFunctionDeclarationIsClean) {
  const auto run = lintOne("static int helper(int x) { return x + 1; }");
  EXPECT_TRUE(run.engine.empty());
}

TEST(DetLint, FpAccumulationUnderUnorderedLoopTrips005) {
  const auto run = lintOne(R"(
    #include <unordered_map>
    double mean(const std::unordered_map<int, double>& samples) {
      double sum = 0.0;
      for (const auto& kv : samples) sum += kv.second;
      return sum;
    }
  )");
  EXPECT_EQ(countCode(run, "MB-DET-005"), 1);
  EXPECT_EQ(countCode(run, "MB-DET-001"), 1);  // the loop itself still reports
}

TEST(DetLint, IntegerAccumulationUnderUnorderedLoopIsOnly001) {
  const auto run = lintOne(R"(
    #include <unordered_map>
    int total(const std::unordered_map<int, int>& m) {
      int sum = 0;
      for (const auto& kv : m) sum += kv.second;
      return sum;
    }
  )");
  EXPECT_EQ(countCode(run, "MB-DET-005"), 0);
  EXPECT_EQ(countCode(run, "MB-DET-001"), 1);
}

TEST(DetLint, SameLineAndNextLineSuppressionsApply) {
  const auto sameLine = lintOne(
      "int f() { static int n = 0; return ++n; } "
      "// MB_DET_ALLOW(MB-DET-004, \"test\")");
  EXPECT_TRUE(sameLine.engine.empty());
  ASSERT_EQ(sameLine.suppressions.size(), 1u);
  EXPECT_EQ(sameLine.suppressions[0].uses, 1);

  const auto nextLine = lintOne(
      "// MB_DET_ALLOW(MB-DET-004, \"test\")\n"
      "int f() { static int n = 0; return ++n; }");
  EXPECT_TRUE(nextLine.engine.empty());
}

TEST(DetLint, SuppressionOfOtherCodeDoesNotApply) {
  const auto run = lintOne(
      "// MB_DET_ALLOW(MB-DET-003, \"wrong code\")\n"
      "int f() { static int n = 0; return ++n; }");
  EXPECT_EQ(countCode(run, "MB-DET-004"), 1);
  EXPECT_EQ(countCode(run, "MB-DET-008"), 1);  // and the allow went unused
}

TEST(DetLint, FileScopeSuppressionCoversWholeFile) {
  const auto run = lintOne(
      "// MB_DET_ALLOW_FILE(MB-DET-004, \"test file\")\n"
      "static int a = 0;\n"
      "namespace x { static long b = 1; }\n");
  EXPECT_TRUE(run.engine.empty());
  ASSERT_EQ(run.suppressions.size(), 1u);
  EXPECT_TRUE(run.suppressions[0].fileScope);
  EXPECT_EQ(run.suppressions[0].uses, 2);
}

TEST(DetLint, UnusedSuppressionWarns008) {
  const auto run = lintOne("// MB_DET_ALLOW(MB-DET-001, \"nothing here\")\nint x = 1;");
  EXPECT_EQ(countCode(run, "MB-DET-008"), 1);
  EXPECT_FALSE(run.engine.hasErrors());  // 008 is a warning
}

TEST(DetLint, MarkerWithoutReasonTrips007) {
  const auto run = lintOne("// MB_DET_ALLOW(MB-DET-001)\nint x = 1;");
  EXPECT_EQ(countCode(run, "MB-DET-007"), 1);
  EXPECT_TRUE(run.suppressions.empty());
}

TEST(DetLint, MarkerWithBadCodeTrips007) {
  const auto run = lintOne("// MB_DET_ALLOW(MB-XXX-1, \"bad\")\nint x = 1;");
  EXPECT_EQ(countCode(run, "MB-DET-007"), 1);
}

TEST(DetLint, ProseMentionOfMarkerNameIsIgnored) {
  const auto run = lintOne("// See the MB_DET_ALLOW marker documentation.\nint x = 1;");
  EXPECT_TRUE(run.engine.empty());
}

TEST(DetLint, CodeFormMarkerSuppressesToo) {
  const auto run = lintOne(
      "MB_DET_ALLOW(MB-DET-004, \"code-form marker\")\n"
      "static int counter = 0;\n");
  EXPECT_TRUE(run.engine.empty());
  ASSERT_EQ(run.suppressions.size(), 1u);
  EXPECT_EQ(run.suppressions[0].code, "MB-DET-004");
  EXPECT_EQ(run.suppressions[0].reason, "code-form marker");
}

TEST(DetLint, UndeclaredCrossChannelReferenceTrips006) {
  const auto run = lintOne(R"(
    class MB_CROSS_CHANNEL Bus { public: void post(int); };
    class MB_CHANNEL_LOCAL Engine {
     private:
      Bus* bus_ = nullptr;
    };
  )");
  EXPECT_EQ(countCode(run, "MB-DET-006"), 1);
  EXPECT_EQ(run.ownership.undeclared(), 1);
  EXPECT_NE(run.ownership.json().find("\"undeclared\":1"), std::string::npos);
}

TEST(DetLint, DeclaredInterfaceSanctionsTheReference) {
  const auto run = lintOne(R"(
    class MB_CROSS_CHANNEL Bus { public: void post(int); };
    class MB_CHANNEL_LOCAL Engine {
     private:
      MB_CHANNEL_IFACE(Bus)
      Bus* bus_ = nullptr;
    };
  )");
  EXPECT_EQ(countCode(run, "MB-DET-006"), 0);
  EXPECT_EQ(run.ownership.undeclared(), 0);
  ASSERT_FALSE(run.ownership.refs.empty());
  EXPECT_TRUE(run.ownership.refs[0].declared);
  EXPECT_NE(run.ownership.json().find("\"undeclared\":0"), std::string::npos);
}

TEST(DetLint, OutOfClassMemberDefinitionIsScanned) {
  // The reference lives only in the .cpp member definition; the interface
  // declared in the header still covers it.
  const std::vector<SourceFile> undeclared = {
      {"engine.hpp",
       "class MB_CROSS_CHANNEL Bus { public: void post(int); };\n"
       "class MB_CHANNEL_LOCAL Engine { public: void flush(); };\n"},
      {"engine.cpp",
       "void Engine::flush() { Bus* b = nullptr; if (b) b->post(1); }\n"}};
  const auto bad = lint(undeclared);
  EXPECT_EQ(countCode(bad, "MB-DET-006"), 1);

  const std::vector<SourceFile> declared = {
      {"engine.hpp",
       "class MB_CROSS_CHANNEL Bus { public: void post(int); };\n"
       "class MB_CHANNEL_LOCAL Engine { public: void flush();\n"
       "  MB_CHANNEL_IFACE(Bus)\n"
       "};\n"},
      {"engine.cpp",
       "void Engine::flush() { Bus* b = nullptr; if (b) b->post(1); }\n"}};
  const auto good = lint(declared);
  EXPECT_EQ(countCode(good, "MB-DET-006"), 0);
  EXPECT_EQ(good.ownership.undeclared(), 0);
}

TEST(DetLint, ConstructorInitializerListDoesNotTruncateTheBodySpan) {
  const std::vector<SourceFile> files = {
      {"engine.hpp",
       "class MB_CROSS_CHANNEL Bus { public: void post(int); };\n"
       "class MB_CHANNEL_LOCAL Engine { public: Engine(int a); int a_; };\n"},
      {"engine.cpp",
       "Engine::Engine(int a) : a_{a} { Bus* b = nullptr; if (b) b->post(a); }\n"}};
  const auto run = lint(files);
  EXPECT_EQ(countCode(run, "MB-DET-006"), 1);
}

TEST(DetLint, UnattributableIfaceTrips007) {
  const auto run = lintOne("MB_CHANNEL_IFACE(Bus)\nint x = 1;\n");
  EXPECT_EQ(countCode(run, "MB-DET-007"), 1);
}

TEST(DetLint, OwnershipMapListsTypesSorted) {
  const auto run = lintOne(R"(
    class MB_CROSS_CHANNEL Zeta {};
    class MB_CHANNEL_LOCAL Alpha {};
  )");
  ASSERT_EQ(run.ownership.types.size(), 2u);
  EXPECT_EQ(run.ownership.types[0].name, "Alpha");
  EXPECT_FALSE(run.ownership.types[0].crossChannel);
  EXPECT_EQ(run.ownership.types[1].name, "Zeta");
  EXPECT_TRUE(run.ownership.types[1].crossChannel);
}

TEST(DetLint, FindingsInsideStringsAndCommentsAreIgnored) {
  const auto run = lintOne(R"(
    // rand() and std::unordered_map<int,int> in a comment are fine
    const char* kDoc = "call rand() over an unordered_map";
  )");
  EXPECT_TRUE(run.engine.empty());
}

TEST(DetLint, PreprocessorLinesAreIgnored) {
  const auto run = lintOne("#define PICK(x) rand(x)\nint y = 2;\n");
  EXPECT_TRUE(run.engine.empty());
}

TEST(DetLint, DiagnosticsAreSortedByFileThenLine) {
  // Feed files in reverse name order; the engine must still render sorted.
  const auto run = lint({
      {"b.cpp", "int f() { static int n = 0; return ++n; }\n"},
      {"a.cpp", "\n\nint g() { static int m = 0; return ++m; }\n"},
  });
  const auto& diags = run.engine.diagnostics();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].where.file, "a.cpp");
  EXPECT_EQ(diags[1].where.file, "b.cpp");
}

}  // namespace
}  // namespace mb::analysis
