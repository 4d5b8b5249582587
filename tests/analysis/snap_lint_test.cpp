// Unit tests for MB-SNP-005 on in-memory sources. The shipped CLI runs over
// the seeded fixtures under tests/analysis/snap_fixtures/ and over the tree
// (ctest mbstatic_*).
#include "analysis/snap_lint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace mb::analysis {
namespace {

int countFindings(const std::string& contents) {
  DiagnosticEngine engine;
  lintLoadLengths({{"t.cpp", contents}}, engine);
  int n = 0;
  for (const Diagnostic& d : engine.diagnostics()) {
    EXPECT_EQ(d.code, "MB-SNP-005");
    EXPECT_EQ(d.where.file, "t.cpp");
    ++n;
  }
  return n;
}

TEST(SnapLint, UnguardedRawLengthIs005) {
  EXPECT_EQ(countFindings(R"(
class S {
 public:
  void load(ckpt::Reader& r) {
    v_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) v_.push_back(r.u32());
  }
 private:
  std::vector<std::uint32_t> v_;
};
)"),
            1);
}

TEST(SnapLint, RawLengthSizingAReserveIs005) {
  EXPECT_EQ(countFindings(R"(
void Q::loadQueue(ckpt::Reader& in) {
  const std::uint64_t n = in.u32();
  q_.reserve(n);
}
)"),
            1);
}

TEST(SnapLint, FailGuardSilences005) {
  EXPECT_EQ(countFindings(R"(
class S {
 public:
  void load(ckpt::Reader& r) {
    v_.clear();
    const std::uint64_t n = r.u64();
    if (n > kMax) { r.fail(); return; }
    for (std::uint64_t i = 0; i < n; ++i) v_.push_back(r.u32());
  }
 private:
  std::vector<std::uint32_t> v_;
};
)"),
            0);
}

TEST(SnapLint, CountedReadAndRangeForAreClean) {
  // Reader::count() bounds the length by the bytes left; a range-for's
  // variable is not a wire-supplied count even when it shadows one.
  EXPECT_EQ(countFindings(R"(
void S::load(ckpt::Reader& r) {
  const std::uint64_t n = r.count(8);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) v_.push_back(r.i64());
  const std::uint64_t m = r.u64();
  for (auto m : v_) use(m);
}
)"),
            0);
}

TEST(SnapLint, RawLengthSizingAResizeIs005) {
  EXPECT_EQ(countFindings(R"(
void Table::load(ckpt::Reader& r) {
  const std::uint32_t rows = r.u32();
  rows_.resize(rows);
}
)"),
            1);
}

TEST(SnapLint, ARawReadAfterTheLoopDoesNotSizeIt) {
  // Only a read that comes before the loop can size it.
  EXPECT_EQ(countFindings(R"(
void S::load(ckpt::Reader& r) {
  std::uint64_t n = 4;
  for (std::uint64_t i = 0; i < n; ++i) v_.push_back(r.i64());
  n = r.u64();
}
)"),
            0);
}

TEST(SnapLint, DeclarationsAndReaderlessLoadsAreNotScanned) {
  // A declaration has no body, and a load() without a Reader& parameter is
  // not a snapshot load path.
  EXPECT_EQ(countFindings(R"(
class S {
 public:
  void load(ckpt::Reader& r);
  void loadFrom(std::istream& in) {
    const std::uint64_t n = in.u64();
    for (std::uint64_t i = 0; i < n; ++i) v_.push_back(0);
  }
};
)"),
            0);
}

TEST(SnapLint, FindingNamesTheFunctionAndTheSizingLine) {
  DiagnosticEngine engine;
  lintLoadLengths({{"q.cpp", R"(// line 1
void Queue::load(ckpt::Reader& r) {
  const std::uint64_t n = r.u64();
  items_.clear();
  items_.reserve(n);
}
)"}},
                  engine);
  ASSERT_EQ(engine.diagnostics().size(), 1u);
  const Diagnostic& d = engine.diagnostics()[0];
  EXPECT_EQ(d.code, "MB-SNP-005");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.where.file, "q.cpp");
  EXPECT_EQ(d.where.line, 5);
  EXPECT_NE(d.message.find("Queue::load()"), std::string::npos) << d.message;
}

TEST(SnapLint, FindingsAreSortedByFileThenLine) {
  const std::string twoLoads = R"(
void A::load(ckpt::Reader& r) {
  const std::uint64_t n = r.u64();
  a_.reserve(n);
}
void B::load(ckpt::Reader& r) {
  const std::uint64_t m = r.u32();
  for (std::uint64_t i = 0; i < m; ++i) b_.push_back(r.u8());
}
)";
  DiagnosticEngine engine;
  lintLoadLengths({{"z.cpp", twoLoads}, {"a.cpp", twoLoads}}, engine);
  ASSERT_EQ(engine.diagnostics().size(), 4u);
  const std::vector<std::pair<std::string, int>> want = {
      {"a.cpp", 4}, {"a.cpp", 8}, {"z.cpp", 4}, {"z.cpp", 8}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(engine.diagnostics()[i].where.file, want[i].first);
    EXPECT_EQ(engine.diagnostics()[i].where.line, want[i].second);
  }
}

}  // namespace
}  // namespace mb::analysis
