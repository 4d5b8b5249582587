// Unit tests for the save/load symmetry & serialization-completeness
// linter. The seeded fixture corpus under tests/analysis/snap_fixtures/
// exercises the shipped CLI (`mbstatic snap --self-test`); these tests pin
// the engine's behaviour on in-memory snippets: stream extraction and
// comparison, pairing, completeness, annotations, suppressions, and the
// fingerprint baseline round trip.
#include "analysis/snap_lint.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

namespace mb::analysis {
namespace {

struct LintRun {
  DiagnosticEngine engine;
  std::vector<SnapPair> pairs;
  std::vector<Suppression> suppressions;
  std::string baseline;
};

LintRun lint(const std::vector<SourceFile>& files, SnapLintOptions opts = {}) {
  LintRun run;
  SnapLinter linter(run.engine, std::move(opts));
  linter.run(files);
  run.pairs = linter.pairs();
  run.suppressions = linter.suppressions();
  run.baseline = linter.renderBaseline();
  return run;
}

LintRun lintOne(const std::string& contents, SnapLintOptions opts = {}) {
  return lint({{"t.cpp", contents}}, std::move(opts));
}

int countCode(const LintRun& run, const std::string& code) {
  int n = 0;
  for (const Diagnostic& d : run.engine.diagnostics())
    if (d.code == code) ++n;
  return n;
}

const SnapPair* findPair(const LintRun& run, const std::string& key) {
  for (const SnapPair& p : run.pairs)
    if (p.key == key) return &p;
  return nullptr;
}

const char* kSymmetric = R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); w.i64(b_); }
  void load(ckpt::Reader& r) { a_ = r.u32(); b_ = r.i64(); }
 private:
  std::uint32_t a_ = 0;
  std::int64_t b_ = 0;
};
)";

TEST(SnapLint, SymmetricPairIsClean) {
  const LintRun run = lintOne(kSymmetric);
  EXPECT_TRUE(run.engine.empty());
  const SnapPair* p = findPair(run, "S::");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->saveStream, "u32,i64");
  EXPECT_EQ(p->loadStream, "u32,i64");
  EXPECT_NE(p->fingerprint, 0u);
}

TEST(SnapLint, StreamDivergenceIs001) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); }
  void load(ckpt::Reader& r) { a_ = r.u32(); b_ = r.i64(); }
 private:
  std::uint32_t a_ = 0; std::int64_t b_ = 0;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-001"), 1);
}

TEST(SnapLint, HalfPairIs001) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void load(ckpt::Reader& r) { a_ = r.u32(); }
 private:
  std::uint32_t a_ = 0;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-001"), 1);
}

TEST(SnapLint, CountNormalizesToU64) {
  // Reader::count(...) is the guarded read of a u64 the writer emitted.
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u64(v_.size()); for (auto x : v_) w.u32(x); }
  void load(ckpt::Reader& r) {
    v_.clear();
    const std::uint64_t n = r.count(4);
    for (std::uint64_t i = 0; i < n; ++i) v_.push_back(r.u32());
  }
 private:
  std::vector<std::uint32_t> v_;
};
)");
  EXPECT_TRUE(run.engine.empty()) << run.engine.renderText();
  EXPECT_EQ(findPair(run, "S::")->saveStream, "u64,u32");
}

TEST(SnapLint, SubObjectAndHelperCallsCompareByName) {
  const LintRun run = lintOne(R"(
class Outer {
 public:
  void save(ckpt::Writer& w) const { inner_.save(w); saveExtras(w); }
  void load(ckpt::Reader& r) { inner_.load(r); loadExtras(r); }
  void saveExtras(ckpt::Writer& w) const { w.u8(tag_); }
  void loadExtras(ckpt::Reader& r) { tag_ = r.u8(); }
 private:
  Inner inner_;
  std::uint8_t tag_ = 0;
};
)");
  EXPECT_TRUE(run.engine.empty()) << run.engine.renderText();
  const SnapPair* p = findPair(run, "Outer::");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->saveStream, "sub:inner_,call:Extras");
  EXPECT_EQ(p->loadStream, "sub:inner_,call:Extras");
}

TEST(SnapLint, SectionMismatchIs002) {
  const LintRun run = lintOne(R"(
inline void saveAll(ckpt::Writer& w) { w.addSection("TRACE"); w.u64(0); }
inline void loadAll(ckpt::Reader& r) { r.section("CORES"); r.u64(); }
)");
  EXPECT_EQ(countCode(run, "MB-SNP-002"), 2);
}

TEST(SnapLint, ForgottenMutatedMemberIs003) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); }
  void load(ckpt::Reader& r) { a_ = r.u32(); }
  void tick() { ++missing_; }
 private:
  std::uint32_t a_ = 0;
  std::uint64_t missing_ = 0;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-003"), 1);
}

TEST(SnapLint, TransientAnnotationSilences003) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); }
  void load(ckpt::Reader& r) { a_ = r.u32(); }
  void tick() { ++scratch_; }
 private:
  std::uint32_t a_ = 0;
  std::uint64_t scratch_ = 0;
  MB_SNAP_TRANSIENT(scratch_, "recomputed every tick");
};
)");
  EXPECT_TRUE(run.engine.empty()) << run.engine.renderText();
}

TEST(SnapLint, UnguardedRawLengthIs005) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u64(v_.size()); for (auto x : v_) w.u32(x); }
  void load(ckpt::Reader& r) {
    v_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) v_.push_back(r.u32());
  }
 private:
  std::vector<std::uint32_t> v_;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-005"), 1);
  EXPECT_EQ(countCode(run, "MB-SNP-001"), 0);  // streams still symmetric
}

TEST(SnapLint, FailGuardSilences005) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u64(v_.size()); for (auto x : v_) w.u32(x); }
  void load(ckpt::Reader& r) {
    v_.clear();
    const std::uint64_t n = r.u64();
    if (n > kMax) { r.fail(); return; }
    for (std::uint64_t i = 0; i < n; ++i) v_.push_back(r.u32());
  }
 private:
  std::vector<std::uint32_t> v_;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-005"), 0);
}

TEST(SnapLint, RebuiltInLoadOnlyIs006Warning) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.i64(row_); }
  void load(ckpt::Reader& r) { row_ = r.i64(); bit_ = row_ >= 0; }
 private:
  std::int64_t row_ = -1;
  bool bit_ = false;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-006"), 1);
  EXPECT_FALSE(run.engine.hasErrors());
}

TEST(SnapLint, MissingReasonIs007) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); }
  void load(ckpt::Reader& r) { a_ = r.u32(); }
 private:
  std::uint32_t a_ = 0;
  std::uint64_t b_ = 0;
  MB_SNAP_TRANSIENT(b_);
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-007"), 1);
}

TEST(SnapLint, StaleTransientOnSerializedMemberIs008) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); }
  void load(ckpt::Reader& r) { a_ = r.u32(); }
 private:
  std::uint32_t a_ = 0;
  MB_SNAP_TRANSIENT(a_, "no longer true: save() writes it");
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-008"), 1);
}

TEST(SnapLint, UsedSuppressionConsumesFinding) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); }
  void load(ckpt::Reader& r) { a_ = r.u32(); }
  void tick() { ++memo_; }
 private:
  std::uint32_t a_ = 0;
  std::uint64_t memo_ = 0; MB_SNAP_ALLOW(MB-SNP-003, "memo of a_; rebuilt lazily");
};
)");
  EXPECT_TRUE(run.engine.empty()) << run.engine.renderText();
  ASSERT_EQ(run.suppressions.size(), 1u);
  EXPECT_EQ(run.suppressions[0].uses, 1);
}

TEST(SnapLint, BaselineRoundTripAndDrift) {
  SnapLintOptions opts;
  opts.snapshotVersion = 1;
  const LintRun first = lintOne(kSymmetric, opts);
  EXPECT_NE(first.baseline.find("version 1"), std::string::npos);
  EXPECT_NE(first.baseline.find("S:: "), std::string::npos);

  // Re-lint against the recorded baseline: clean.
  SnapLintOptions again = opts;
  again.haveBaseline = true;
  again.baselineContents = first.baseline;
  EXPECT_TRUE(lintOne(kSymmetric, again).engine.empty());

  // Change the stream without bumping the version: MB-SNP-004.
  const std::string changed = R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); w.i64(b_); w.u8(c_); }
  void load(ckpt::Reader& r) { a_ = r.u32(); b_ = r.i64(); c_ = r.u8(); }
 private:
  std::uint32_t a_ = 0;
  std::int64_t b_ = 0;
  std::uint8_t c_ = 0;
};
)";
  const LintRun drift = lintOne(changed, again);
  EXPECT_EQ(countCode(drift, "MB-SNP-004"), 1);
  EXPECT_TRUE(drift.engine.hasErrors());

  // The same drift under a bumped version is legitimate.
  SnapLintOptions bumped = again;
  bumped.snapshotVersion = 2;
  EXPECT_EQ(countCode(lintOne(changed, bumped), "MB-SNP-004"), 0);
}

TEST(SnapLint, ParseSnapshotVersion) {
  EXPECT_EQ(parseSnapshotVersion("constexpr std::uint32_t kSnapshotVersion = 3;"), 3);
  EXPECT_EQ(parseSnapshotVersion("no version here"), -1);
}

TEST(SnapLint, CommittedBaselineRecordsTheCurrentSnapshotVersion) {
  // MB-SNP-004 only fires while the baseline's version equals
  // kSnapshotVersion, so a version bump without a re-pinned baseline
  // silently turns the fingerprint gate off for every later change.
  std::string header, baseline;
  ASSERT_TRUE(readFileToString(std::string(MB_SOURCE_ROOT) + "/src/ckpt/snapshot.hpp",
                               &header));
  ASSERT_TRUE(readFileToString(std::string(MB_SOURCE_ROOT) + "/tools/snap_baseline.txt",
                               &baseline));
  const int version = parseSnapshotVersion(header);
  ASSERT_GT(version, 0);
  std::istringstream lines(baseline);
  std::string line;
  int recorded = -1;
  while (std::getline(lines, line))
    if (line.rfind("version ", 0) == 0) recorded = std::atoi(line.c_str() + 8);
  EXPECT_EQ(recorded, version)
      << "re-pin: mbstatic snap --root=. --write-baseline=tools/snap_baseline.txt";
}

}  // namespace
}  // namespace mb::analysis
